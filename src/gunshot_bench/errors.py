"""Exception types shared across the package."""


class InvalidParam(ValueError):
    """A parameter is outside its documented domain."""


class UnsupportedFormat(ValueError):
    """Audio input the normalizer does not accept (channel count, rate)."""


class TooShort(ValueError):
    """Signal shorter than one analysis window."""


class InsufficientData(ValueError):
    """Not enough samples to fit the requested model (e.g. fewer points than clusters)."""


class DimensionMismatch(ValueError):
    """Feature/codebook dimensionality disagreement."""


class ShapeMismatch(ValueError):
    """Tensor shapes incompatible with the requested op."""


class SceneOverflow(ValueError):
    """An event does not fit inside the scene bounds."""


class DegenerateData(ValueError):
    """A training set that cannot support the requested classifier (empty class, single class)."""


class NonFiniteTensor(ArithmeticError):
    """An op produced NaN/Inf from finite inputs."""


class NonFiniteLoss(ArithmeticError):
    """Training loss became NaN/Inf; aborts with diagnostic context."""


class CorruptCheckpoint(ValueError):
    """A model directory cannot be used: a checkpoint that fails its magic,
    version or checksum check, an unreadable meta, or a misshapen entry."""
