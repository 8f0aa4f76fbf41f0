"""Exception types shared across the package.

Each error carries a short machine-readable ``category`` used by the CLI to
pick an exit code, so library users and scripts can react without parsing
messages.
"""


class PDirichletError(Exception):
    """Base class for all package errors."""

    category = "runtime"


class ValidationError(PDirichletError):
    """Invalid argument values or shapes (domain violations, bad ranges)."""

    category = "validation"


class ConfigError(PDirichletError):
    """Malformed configuration text or unknown/duplicate keys."""

    category = "config"


class ConstraintError(PDirichletError):
    """Constraint sets that are empty, duplicated, or off the node lattice."""

    category = "constraint"


class SingularSystemError(PDirichletError):
    """A linear system required by a solver or fit is singular or ill-posed."""

    category = "singular-system"
