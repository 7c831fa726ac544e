"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when user-supplied data or configuration violates a contract.

    The CLI maps this to exit code 1; anything else that escapes is an
    internal error (exit code 2).
    """


def read_exact(fh, size: int, what: str) -> bytes:
    """Read exactly ``size`` bytes from a binary file, or fail naming ``what``."""
    data = fh.read(size)
    if len(data) != size:
        raise ValidationError(f"truncated {what}: expected {size} bytes, got {len(data)}")
    return data


def read_into(fh, out, what: str):
    """Fill the array ``out`` from a binary file, or fail naming ``what``;
    returns ``out``."""
    got = fh.readinto(out)
    if got != out.nbytes:
        raise ValidationError(f"truncated {what}: expected {out.nbytes} bytes, got {got}")
    return out
