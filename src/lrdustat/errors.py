"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An input parameter is outside its admissible range."""


class NonEmbeddableError(RuntimeError):
    """Circulant embedding of a covariance sequence has a significantly
    negative eigenvalue, so exact sampling is impossible for this model/n."""


class RankNotFoundError(RuntimeError):
    """No Hermite coefficient above tolerance up to the truncation degree;
    the caller must raise Q or supply the rank explicitly."""

    def __init__(self, max_degree):
        self.max_degree = max_degree
        super().__init__(
            f"no Hermite coefficient above tolerance up to total degree "
            f"{max_degree}; raise Q or supply the rank"
        )


class RegimeError(ParameterError):
    """The long-range reduction regime m*D < 1 is violated."""
