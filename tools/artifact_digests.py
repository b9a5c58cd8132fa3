"""Print the sha256 of every data artifact of a fixed list of ostlab runs.

Usage, from the root of a source checkout:

    python3 tools/artifact_digests.py > digests.txt

Each run calls ``ostlab.cli.main`` in-process, from this checkout's
``src``, inside one fresh temporary working directory and with a relative
``--out <label>``, so the ``output.dir`` echoed into every artifact does not
depend on where the script runs; ``simulate.cfg``, the config file of the
``simulate-config`` run, is written there first.  Sidecars (``*.meta.json``) carry a
timestamp and are skipped.  Each output line is
``<label>/<file> <sha256> data=<sha256>``, sorted: the digest of the file's
bytes, then of its data alone (CSV ``# `` lines and the JSON ``config``
block removed; other files as they are).  Running the script at two commits
and diffing the outputs checks that a change leaves every data artifact byte
for byte as it was (within one numpy build); a change to the config keys
alters the first digest of a file and leaves the second.  It exits 1 if any
run exits non-zero.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ostlab.cli import main as ostlab_main  # noqa: E402

_SIMULATE = ["--modes", "8", "--t", "0.1", "--dt", "0.002", "--record-every", "10"]

# _SIMULATE as a config file, whose grid.modes the simulate-config run's flag replaces: its data digests are simulate's
_SIMULATE_CFG = "# simulate's run, from a file\nflow.t = 0.1\nflow.dt = 0.002\nflow.record_every = 10\ngrid.modes = 4\n"

_INVARIANCE = ["--modes", "4", "--count", "500", "--t-values", "0.1", "--dt", "0.005"]

# every observable name; ball_indicator's radius is the cutoff, or default_cutoff without one
_ALL_OBSERVABLES = ["--observables", "mode_power(1),mode_power(2),mode_power(3),mode_power(4),cubic_integral,"
                                     "hamiltonian,ball_indicator,l2_squared"]

# every subcommand at a small size, then the branches the small runs miss
RUNS = [
    ("simulate", ["simulate", *_SIMULATE]),
    ("simulate-config", ["simulate", "--config", "simulate.cfg", "--modes", "8"]),
    ("gibbs-sample", ["gibbs-sample", "--modes", "4", "--count", "500"]),
    ("verify-invariance", ["verify-invariance", *_INVARIANCE]),
    ("resonance-scan", ["resonance-scan", "--nmax", "16"]),
    # 300: six row blocks, of which the scan re-scans only those below the last histogram edge
    ("resonance-scan-blocks", ["resonance-scan", "--nmax", "300"]),
    ("bilinear-sweep", ["bilinear-sweep", "--s", "0,-0.5", "--nmax", "4,8", "--trials", "1"]),
    ("kernel-scan", ["kernel-scan", "--alpha", "0,1,-10", "--sum-tau", "0,5", "--sum-n", "1,2", "--k-range", "2000"]),
    ("picard", ["picard", "--modes", "8", "--norm", "0.1", "--t", "0.05", "--iters", "5", "--ref-dt", "0.001"]),
    ("convergence-m", ["convergence-m", "--m", "4,8", "--t", "0.1", "--dt", "0.002", "--record-every", "10"]),
    ("simulate-cosine", ["simulate", *_SIMULATE, "--init", "cosine", "--norm", "0.5"]),
    ("gibbs-pcn-cutoff", ["gibbs-sample", "--modes", "4", "--count", "300", "--sampler", "pcn-mcmc", "--beta", "0.4",
                          "--burn-in", "20", "--cutoff", "1.5"]),
    ("verify-invariance-negative-t", ["verify-invariance", "--modes", "4", "--count", "500", "--t-values", "-0.05,0.1",
                                      "--dt", "0.005"]),
    # times that dt does not divide (a repeated key's last value wins): the
    # fixed-time runs take a fractional tail step
    ("simulate-tail", ["simulate", *_SIMULATE, "--t", "0.105"]),
    ("picard-tail", ["picard", "--modes", "8", "--norm", "0.1", "--t", "0.05", "--iters", "5", "--ref-dt", "0.0007"]),
    ("verify-invariance-tail", ["verify-invariance", "--modes", "4", "--count", "500",
                                "--t-values", "-0.0513,0.1037,0.0005", "--dt", "0.005"]),
    ("convergence-m-tail", ["convergence-m", "--m", "4,8", "--t", "0.1013", "--dt", "0.002", "--record-every", "10"]),
    # the lockstep walk of reference and truncations backwards in time
    ("convergence-m-negative-t", ["convergence-m", "--m", "4,8", "--t", "-0.1013", "--dt", "0.002",
                                  "--record-every", "10"]),
    # 51 records at m = 2048 are four 16-record L2/H blocks, the last one partial
    ("simulate-blocks", ["simulate", "--modes", "2048", "--t", "0.05", "--dt", "0.001"]),
    ("verify-invariance-all-observables", ["verify-invariance", *_INVARIANCE, *_ALL_OBSERVABLES]),
    ("verify-invariance-all-observables-cutoff", ["verify-invariance", *_INVARIANCE, *_ALL_OBSERVABLES,
                                                  "--cutoff", "2"]),
    # 4500 rows are two full 2048-row flow blocks and a partial one, walked with a t = 0 entry and a negative time
    ("verify-invariance-blocks", ["verify-invariance", "--modes", "4", "--count", "4500", "--t-values", "0,-0.02,0.03",
                                  "--dt", "0.005", "--threads", "2"]),
    # 2500 rows at m = 32 are three 1024-row draw blocks, the last one partial, with a cutoff that splits them
    ("gibbs-sample-blocks", ["gibbs-sample", "--modes", "32", "--count", "2500", "--cutoff", "1.5"]),
    # the stacked table product: at m = 32 a 2048-row block is 64 chunks of 32 rows in two stacked calls, and the
    # 52-row tail block two chunks
    ("verify-invariance-stacked", ["verify-invariance", "--modes", "32", "--count", "2100", "--t-values", "0.01",
                                   "--dt", "0.001"]),
    # Picard's 641 nodes at the default m = 16 are five 107-row chunks and one of 106: two unequal stacked sets
    ("picard-default", ["picard"]),
    # the pCN chain with no cutoff, at m = 8 and beta 0.5, with burn-in
    ("gibbs-pcn-burn-in", ["gibbs-sample", "--modes", "8", "--count", "2000", "--sampler", "pcn-mcmc",
                           "--burn-in", "50"]),
    # the frequency sums at the benchmark's k_range on one worker and on two, which must print equal data digests
    ("kernel-scan-threads-1", ["kernel-scan", "--k-range", "100000", "--threads", "1"]),
    ("kernel-scan-threads-2", ["kernel-scan", "--k-range", "100000", "--threads", "2"]),
    # no random trials: the box pair alone per nu and n_max
    ("bilinear-sweep-no-trials", ["bilinear-sweep", "--s", "0,-0.5", "--nmax", "4,8", "--trials", "0"]),
]


def _data_bytes(path: Path) -> bytes:
    """The file's bytes without the configuration echo it embeds."""
    raw = path.read_bytes()
    if path.suffix == ".csv":
        return b"".join(line for line in raw.splitlines(keepends=True) if not line.startswith(b"# "))
    if path.suffix == ".json":
        doc = json.loads(raw)
        doc.pop("config", None)
        return json.dumps(doc, indent=2, sort_keys=True).encode()
    return raw


def digests(runs) -> list:
    """Run each (label, argv) in a fresh working directory; return the sorted digest lines."""
    lines, failed = [], []
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        Path("simulate.cfg").write_text(_SIMULATE_CFG)
        try:
            for label, argv in runs:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                    code = ostlab_main([*argv, "--out", label])
                if code != 0:
                    failed.append(f"{label}: exit {code}: {err.getvalue().strip()}")
                for path in sorted(Path(label).rglob("*")):
                    if path.is_file() and not path.name.endswith(".meta.json"):
                        whole, data = (hashlib.sha256(b).hexdigest() for b in (path.read_bytes(), _data_bytes(path)))
                        lines.append(f"{path.as_posix()} {whole} data={data}")
        finally:
            os.chdir(start)
    for message in failed:
        print(message, file=sys.stderr)
    if failed:
        raise SystemExit(1)
    return sorted(lines)


if __name__ == "__main__":
    print("\n".join(digests(RUNS)))
