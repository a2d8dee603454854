"""Error types shared across the package."""


class CapabilityError(ValueError):
    """A request past one of the package's declared limits, such as a Gauss
    rule's node cap or a check's k_max limit; a ValueError, so callers that
    catch that catch this too."""
