"""Exception types shared across the package."""


class MiniEnvError(Exception):
    """Base class for numerical-contract and configuration failures."""


class CutoffTooSmallError(MiniEnvError):
    """A truncated basis discards more probability mass than the tolerance allows."""


class NumericalContractError(MiniEnvError):
    """An input violates a numerical precondition (hermiticity, trace, finiteness)."""


class IntegrationFailureError(MiniEnvError):
    """A master-equation snapshot broke its trace or positivity bound."""
