"""Exception types shared across the package: nine classes. Every concrete
one derives from one of three bases, and each base carries the exit code and
stderr label that `cli.main` gives it (UsageError 2, IOFailure 3,
NumericFailure 4). Every concrete one also keeps a builtin base (ValueError
or ArithmeticError).

Three handlers tell the classes apart, and each class exists for a
distinction one of them makes: `cli.main` dispatches by base class;
`cli.cmd_featurize` aborts the run on InvalidParam (a flag the clips cannot
meet) and counts any other ValueError, UnsupportedFormat and MalformedFile
included, as one failed clip; and `models.cnn_train` wraps NonFiniteTensor
in NonFiniteLoss, which names the epoch and batch."""


class GunshotBenchError(Exception):
    """A failure of the package; its base below gives its exit code and label."""


class UsageError(GunshotBenchError):
    exit_code, label = 2, "error"


class IOFailure(GunshotBenchError):
    exit_code, label = 3, "I/O failure"


class NumericFailure(GunshotBenchError):
    exit_code, label = 4, "numeric failure"


class InvalidParam(UsageError, ValueError):
    """A parameter or an input outside its documented domain: a flag, too
    few points for a fit, a shape or dimension mismatch, an event that does
    not fit its scene, or a training set with an empty class."""


class UnsupportedFormat(UsageError, ValueError):
    """Audio that featurize cannot use: a channel count or rate the
    normalizer does not accept, or a signal shorter than one window."""


class NonFiniteTensor(NumericFailure, ArithmeticError):
    """An op produced NaN/Inf from finite inputs."""


class NonFiniteLoss(NumericFailure, ArithmeticError):
    """Training loss became NaN/Inf; aborts with diagnostic context."""


class MalformedFile(IOFailure, ValueError):
    """A file that cannot be used: a WAV that does not decode, JSON that is
    not an object with the keys read, a feature cache that fails its check,
    a checkpoint not byte for byte the .npz its entries make, or a model
    directory that names an unknown model or holds a misshapen entry."""
