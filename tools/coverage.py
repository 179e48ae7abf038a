"""Which lines of ``src/venuetrace`` the tier-1 suite never runs, with the stdlib only.

Run from the repository root, with any pytest arguments after the script:
``PYTHONPATH=src python tools/coverage.py -q -p no:cacheprovider``.

It runs pytest in this process under ``sys.settrace`` (threads too, not the
workers of ``run --jobs``), prints each line that has code but never ran as
``path:line``, then ``unreached N of M executable lines``, and exits with
pytest's status. Tracing makes the suite a few times slower, so this stays
out of the tests and of CI.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def executable(path: Path) -> set[int]:
    """The lines the code compiled from ``path`` carries, nested code included;
    line 0, a module's entry, has no source line and is left out."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    paths = sorted((ROOT / "src" / "venuetrace").glob("*.py"))
    ran: dict[str, set[int]] = {str(path): set() for path in paths}

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def enter(frame, _event, _arg):  # only the package's frames are traced line by line
        return local if frame.f_code.co_filename in ran else None

    import pytest  # untraced; the package itself is first imported under the tracer

    threading.settrace(enter)
    sys.settrace(enter)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    unreached = [f"{path.relative_to(ROOT)}:{line}" for path in paths
                 for line in sorted(executable(path) - ran[str(path)])]
    total = sum(len(executable(path)) for path in paths)
    print(*unreached, f"unreached {len(unreached)} of {total} executable lines", sep="\n")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
