"""Exception taxonomy shared by all summgames modules.

The CLI maps these onto its exit-code contract: input errors exit 2,
capability errors exit 3. Contract errors signal that an internal
invariant broke and are treated as input errors by the CLI.
"""


class SummGamesError(Exception):
    """Base class for all library errors."""


class InputError(SummGamesError, ValueError):
    """Arguments or input documents violate a precondition."""


class CapabilityError(SummGamesError):
    """The request exceeds an explicit capability boundary (e.g. exact
    enumeration beyond the player cap, or a nonlinear summarization where
    only linear ones are supported)."""


class ContractError(SummGamesError, RuntimeError):
    """An invariant that the analysis guarantees failed, such as a walk that
    never came within tau of its boundary or a certificate above
    3*tau*rho + eps. Every tau is computed from the summarization, so this
    signals a library defect, or a V table passed in that was not built
    from its game."""
