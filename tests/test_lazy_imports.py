"""`import repro` must not drag in the serving/multiprocessing planes.

``repro.serve``, ``repro.fleet``, ``repro.parallel``, and ``repro.harness``
resolve lazily via PEP 562 module ``__getattr__``; a bare ``import repro``
(the common case for training-only users) should never pay for them.
networkx backs only ``RoadNetwork.graph``, so neither importing the
package, loading a dataset nor importing the serving planes may import it.
Checked in a subprocess so this test is immune to whatever the rest of the
suite has already imported.
"""

from __future__ import annotations

import subprocess
import sys

CHECK = """
import sys
import repro
lazy = [m for m in ("repro.serve", "repro.fleet", "repro.parallel", "repro.harness")
        if m in sys.modules]
assert not lazy, f"eagerly imported: {lazy}"
assert "repro.exec" in sys.modules  # the Executor seam is core, eager
assert "networkx" not in sys.modules, "import repro imported networkx"
dataset = repro.data.load_dataset("PEMS08", "fast")
assert "networkx" not in sys.modules, "load_dataset imported networkx"
repro.serve  # attribute access triggers the import
assert "repro.serve" in sys.modules
assert "repro.fleet" not in sys.modules
repro.fleet
assert "repro.fleet" in sys.modules
assert "networkx" not in sys.modules, "repro.serve / repro.fleet imported networkx"
graph = dataset.network.graph
assert "networkx" in sys.modules
assert graph.number_of_nodes() == dataset.num_sensors
print("ok")
"""


def test_import_repro_is_lazy_about_serve_and_parallel():
    result = subprocess.run(
        [sys.executable, "-c", CHECK], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_dir_lists_lazy_subpackages():
    import repro

    listing = dir(repro)
    for name in ("serve", "fleet", "parallel", "harness", "exec"):
        assert name in listing
