"""Every callable that the benchmark harness hooks exists in the package.

perfbench/layers.py names the functions and methods that the harness
spans or counts; a name the package lacks is only logged as "absent" by
the harness, so its metric silently reads 0.  This test resolves each
name the way perfbench/spans.py does and pins the set that is already
known stale, so that renaming or deleting a hooked callable fails here.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

# stale since earlier refactors; to be emptied when the harness is mended
KNOWN_STALE = {
    "linalg.MatrixFq.kernel_basis",
    "linalg.MatrixFq.rank",
    "linalg.MatrixFq.solve",
    "geometry.points_on_line",
    "geometry.span_plane",
    "geometry.lines_of_plane",
    "decoder.find_external_line",
    "decoder.project_from",
    "decoder.extract_linear_factors",
    "code.enumerate_codewords",
    "fields.FieldTower.inv",
}


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def resolves(package, target):
    """Whether "module.function" or "module.Class.method" names a callable
    defined on its owner, as perfbench/spans.py looks it up."""
    modname, _, rest = target.partition(".")
    owner = importlib.import_module(f"{package}.{modname}")
    *path, attr = rest.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return callable(vars(owner).get(attr))


def test_every_hooked_name_resolves_except_the_known_stale():
    layers = load_layers()
    targets = layers.SPAN_TARGETS + list(layers.COUNT_TARGETS.values())
    unresolved = {t for t in targets if not resolves(layers.PACKAGE, t)}
    assert unresolved == KNOWN_STALE
