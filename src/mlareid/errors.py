"""Exception taxonomy shared by every module.

The CLI maps these onto exit codes: contract/dimension/config failures
exit 1, I/O and data-format failures exit 2. Too few clusters for a PK
batch is not an error: ``pipeline.train_iteration`` checks it and skips
the iteration.
"""


class DimensionError(ValueError):
    """Shapes disagree; the message names the offending axis."""


class ContractError(ValueError):
    """A documented precondition or invariant was violated."""


class ConfigError(ValueError):
    """A configuration value is missing, unknown, or out of range."""


class DataFormatError(OSError):
    """An on-disk artifact (PPM image, manifest, checkpoint) is malformed."""

