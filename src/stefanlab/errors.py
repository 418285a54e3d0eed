"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A parameter or config file violates a structural requirement."""


def _unallocatable(name: str, columns: int, rows: int) -> ConfigurationError:
    return ConfigurationError(
        f"t_end/dt is too large: the {name}'s {columns} columns of {rows} rows need "
        f"{8 * columns * rows} bytes, which cannot be allocated"
    )


class BlowUpError(RuntimeError):
    """The simulated interface left its admissible range (s <= 0 or s at the domain cap)."""


class NumericalError(RuntimeError):
    """A linear solve failed or the temperature field became non-finite."""
