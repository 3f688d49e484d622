"""Exception types shared across the package. Each class derives from one
of three bases, and each base carries the exit code and stderr label that
`cli.main` gives it (UsageError 2, IOFailure 3, NumericFailure 4). Each class
also keeps a builtin base (ValueError or ArithmeticError) for existing handlers."""


class GunshotBenchError(Exception):
    """A failure of the package; its base below gives its exit code and label."""


class UsageError(GunshotBenchError):
    exit_code, label = 2, "error"


class IOFailure(GunshotBenchError):
    exit_code, label = 3, "I/O failure"


class NumericFailure(GunshotBenchError):
    exit_code, label = 4, "numeric failure"


class InvalidParam(UsageError, ValueError):
    """A parameter is outside its documented domain."""


class UnsupportedFormat(UsageError, ValueError):
    """Audio input the normalizer does not accept (channel count, rate)."""


class TooShort(UsageError, ValueError):
    """Signal shorter than one analysis window."""


class InsufficientData(UsageError, ValueError):
    """Not enough samples to fit the requested model (e.g. fewer points than clusters)."""


class DimensionMismatch(UsageError, ValueError):
    """Feature/codebook dimensionality disagreement."""


class ShapeMismatch(UsageError, ValueError):
    """Tensor shapes incompatible with the requested op."""


class SceneOverflow(UsageError, ValueError):
    """An event does not fit inside the scene bounds."""


class DegenerateData(UsageError, ValueError):
    """A training set that cannot support the requested classifier (empty class, single class)."""


class NonFiniteTensor(NumericFailure, ArithmeticError):
    """An op produced NaN/Inf from finite inputs."""


class NonFiniteLoss(NumericFailure, ArithmeticError):
    """Training loss became NaN/Inf; aborts with diagnostic context."""


class CorruptCheckpoint(IOFailure, ValueError):
    """A model directory cannot be used: a checkpoint that fails its magic,
    version or checksum check, an unknown model, or a misshapen entry."""


class MalformedFile(IOFailure, ValueError):
    """A WAV that does not decode, or JSON that is not an object with the keys read."""
