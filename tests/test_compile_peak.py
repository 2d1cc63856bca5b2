"""No engine module's compile peaks above that of ``hfe.pipelines``.

``hfe verify`` runs with no cached bytecode, so every process compiles
each engine module it imports.  The compiler's transient memory grows
with the length of the module, and the allocator keeps it once the
module has compiled, so the largest module compiled sets the
high-water mark of the import, and with it the peak memory of every
verification.  ``hfe.pipelines`` stays whole, since the benchmark's
trace runner reads its stage table, so its peak is the bound.
"""

import tracemalloc
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hfe"


def _compile_peak(path: Path) -> int:
    """The traced peak, in bytes, of compiling the module at path."""
    source = path.read_text()
    tracemalloc.start()
    try:
        compile(source, str(path), "exec", dont_inherit=True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_module_compiles_to_a_higher_peak_than_pipelines():
    peaks = {path.stem: _compile_peak(path) for path in sorted(PACKAGE.glob("*.py"))}
    bound = peaks["pipelines"]
    over = {name: f"{peak / 1e6:.2f} MB" for name, peak in peaks.items() if peak > bound}
    assert not over, (
        f"compiling these modules peaks above hfe.pipelines' {bound / 1e6:.2f} MB: "
        f"{over}; the largest module compiled sets the peak memory of every "
        "verification, so split the module")
