"""No line of the library is longer than MAX_LINE characters."""

from pathlib import Path

MAX_LINE = 110
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mlareid"


def test_no_library_line_is_longer_than_the_limit():
    long = [
        f"{path.name}:{number} has {len(line)} characters"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert not long, long
