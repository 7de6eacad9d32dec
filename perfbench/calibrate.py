"""Fixed calibration program: the host-speed yardstick for the plan timings.

    python3 perfbench/calibrate.py

It does the kinds of work a plan does (start an interpreter, import numpy
and networkx, build a graph, round-trip JSON, run a pure-Python loop) but
none of newssim's code, so no change to the package changes its time. The
benchmark runs it between plans and scales every end-to-end time by how long
it took (see run.py).
"""

import json
import random

import networkx
import numpy

rng = random.Random(1)
graph = networkx.barabasi_albert_graph(3000, 3, seed=1)
records = [{"id": i, "v": [rng.random() for _ in range(30)]} for i in range(3000)]
for _ in range(3):
    json.loads(json.dumps(records))
degrees = numpy.fromiter((d for _, d in graph.degree()), dtype=numpy.int64)
total = 0
for i in range(300000):
    total += i & 7
assert total == 1050000 and degrees.sum() == 2 * graph.number_of_edges()
