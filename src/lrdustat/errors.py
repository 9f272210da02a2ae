"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An input parameter is outside its admissible range."""


class NonEmbeddableError(RuntimeError):
    """Circulant embedding of a covariance sequence has a significantly
    negative eigenvalue, so exact sampling is impossible for this model/n."""


class RegimeError(ParameterError):
    """The long-range reduction regime m*D < 1 is violated."""
