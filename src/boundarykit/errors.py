"""Exception types shared across the package, and the text-file reader that
raises FileFormatError for a file that is not UTF-8."""


class InvalidRegionError(ValueError):
    """Raised when polygon region data violates the region invariants."""


class FileFormatError(ValueError):
    """Parse failure in a region or network file; carries the 1-based line number."""

    def __init__(self, message, line=None, path=None):
        self.line = line
        self.path = path
        loc = ""
        if path is not None:
            loc += f"{path}:"
        if line is not None:
            loc += f"line {line}: "
        super().__init__(loc + message)


class SamplingError(RuntimeError):
    """Rejection sampling gave up (acceptance rate pathologically low)."""


class NumericalError(RuntimeError):
    """A numerical routine failed to reach the requested accuracy."""


class BinningMismatchError(ValueError):
    """Two histograms that must share a binning do not."""


def read_text(path):
    """The text of a UTF-8 file, newlines untranslated: ``str.splitlines``
    breaks its lines at "\r\n" and a lone "\r" as a text-mode read would.
    A byte that is not UTF-8 raises FileFormatError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        # the lines before the byte's, and its own
        line = len((data[:e.start].decode("utf-8") + "-").splitlines())
        raise FileFormatError(f"byte {data[e.start]:#04x} is not UTF-8 text",
                              line=line, path=str(path)) from None
