"""Two-sample U-statistic processes for long-range dependent time series."""

__version__ = "0.1.0"  # before the imports: submodules may read it

from .errors import NonEmbeddableError, ParameterError, RegimeError
from .hermite import (ClassCoeffs, HermiteCoeffTable, ScalingConstants,
                      class_coeffs, coeffs_2d, coeffs_2d_montecarlo,
                      hermite_eval, kernel_table, rank_2d, scaling,
                      summability_diagnostic, wilcoxon_coeff_closed_form)
from .limit_law import (CriticalValueTable, LimitEnsemble, critical_values,
                        default_grid, limit_thm1, limit_thm2, simulate_hermite)
from .lrd_sim import (FGN, TWEAKED_POWER_LAW, LrdParams, Subordinator,
                      asymptotic_L, build_covariance, replication_rng,
                      simulate_gaussian)
from .ustat import (Kernel, OddScore, builtin_kernel, changepoint_statistic,
                    cusum_kernel, gaussian_bump_kernel, huber_kernel,
                    normalize, tukey_kernel, ustat_cusum, ustat_factored,
                    ustat_incremental, ustat_naive, ustat_score,
                    ustat_wilcoxon, wilcoxon_kernel)
from .verify import (ExperimentReport, check_reduction, check_variance,
                     check_weak_convergence)
