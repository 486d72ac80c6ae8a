"""Time `import optomech` plus `cli.load_config` of the generated configs.

Usage: python3 bench/setup_probe.py CONFIG.json [CONFIG.json ...]

Run in a fresh interpreter per measurement; prints the elapsed seconds.
"""

import sys
from pathlib import Path
from time import perf_counter

start = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import optomech  # noqa: E402,F401
from optomech import cli  # noqa: E402

for path in sys.argv[1:]:
    cli.load_config(path)
print(repr(perf_counter() - start))
