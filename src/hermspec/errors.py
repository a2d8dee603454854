"""Error types shared across the package."""


class CapabilityError(ValueError):
    """A request exceeds what the constructed object can deliver (e.g. degree > max_degree)."""
