"""`import repro` must not drag in the serving/multiprocessing planes.

``repro.serve``, ``repro.fleet``, ``repro.parallel``, and ``repro.harness``
resolve lazily via PEP 562 module ``__getattr__``; a bare ``import repro``
(the common case for training-only users) should never pay for them.
networkx backs only ``RoadNetwork.graph``, so neither importing the
package, loading a dataset nor importing the serving planes may import it.
SciPy is no dependency at all: SimST's build, forward and sharded steps
(in fork and spawn workers) must run without it.  Checked in a subprocess
so this test is immune to whatever the rest of the suite has already
imported.
"""

from __future__ import annotations

import os
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


SIMST_CHECK = """
import sys
import numpy as np
from repro.baselines import BuildSpec, build_from_spec
from repro.data import load_dataset
from repro.exec import ShardedExecutor
from repro.tensor import Tensor

dataset = load_dataset("PEMS08", "fast")
spec = BuildSpec(dataset=dataset, history=4, horizon=3, seed=0,
                 overrides=dict(hidden=8, embedding_dim=4, predictor_hidden=8))
model = build_from_spec("simst", spec)
rng = np.random.default_rng(0)
x = rng.standard_normal((2, dataset.num_sensors, 4, 1))
y = rng.standard_normal((2, dataset.num_sensors, 3, 1))
model(Tensor(x))
for method in ("fork", "spawn"):
    executor = ShardedExecutor(model, n_workers=2, start_method=method).open()
    try:
        assert executor.shard_axis == "sensor"
        assert np.isfinite(executor.train_step(None, (x, y)).loss)
    finally:
        executor.close()
assert "scipy" not in sys.modules, "SimST imported scipy"
print("ok")
"""


def test_simst_paths_never_import_scipy(tmp_path):
    """A stand-in ``scipy`` first on the path records any import, in any process."""
    marker = tmp_path / "scipy-imported"
    shim = tmp_path / "shim" / "scipy"
    shim.mkdir(parents=True)
    (shim / "__init__.py").write_text(
        "import os, pathlib\n"
        "pathlib.Path(os.environ['SCIPY_IMPORT_MARKER']).write_text(str(os.getpid()))\n"
        "raise ImportError('scipy is not a dependency')\n"
    )
    path = os.pathsep.join(filter(None, [str(shim.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, SCIPY_IMPORT_MARKER=str(marker))
    result = subprocess.run(
        [sys.executable, "-c", SIMST_CHECK], capture_output=True, text=True, timeout=300, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
    assert not marker.exists(), "a SimST process imported scipy"
