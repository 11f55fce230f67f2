"""Calibration sweep: run baselines + BR + ablations over key datasets."""
import sys
import numpy as np
from repro.datasets import load
from repro.spgemm import MultiplyContext, OuterProductSpGEMM, RowProductSpGEMM
from repro.core import BlockReorganizer, ReorganizerOptions
from repro.gpusim import GPUSimulator, TITAN_XP, CostModel

names = sys.argv[1].split(',') if len(sys.argv) > 1 else (
    ['filter3d', 'harbor', '2cube_sphere', 'mario002', 'offshore',
     'youtube', 'as_caida', 'loc_gowalla', 'slashdot', 'web_notredame'])
overrides = {}
for kv in sys.argv[2:]:
    k, v = kv.split('='); overrides[k] = float(v)
costs = CostModel().with_overrides(**overrides) if overrides else CostModel()
sim = GPUSimulator(TITAN_XP, costs)

algos = {
    'row': RowProductSpGEMM(costs),
    'outer': OuterProductSpGEMM(costs),
    'BR': BlockReorganizer(costs),
    'B-Split': BlockReorganizer(costs, options=ReorganizerOptions(enable_gathering=False, enable_limiting=False)),
    'B-Gather': BlockReorganizer(costs, options=ReorganizerOptions(enable_splitting=False, enable_limiting=False)),
    'B-Limit': BlockReorganizer(costs, options=ReorganizerOptions(enable_splitting=False, enable_gathering=False)),
}
speed = {k: [] for k in algos}
print(f"{'dataset':14s} {'rowGF':>6s} " + ' '.join(f'{k:>8s}' for k in algos))
for name in names:
    ds = load(name)
    ctx = MultiplyContext.build(ds.a, ds.b)
    ctx.c_row_nnz  # force
    res = {k: a.simulate(ctx, sim) for k, a in algos.items()}
    base = res['row'].total_seconds
    for k in algos: speed[k].append(base / res[k].total_seconds)
    print(f"{name:14s} {res['row'].gflops:6.2f} " + ' '.join(f'{base/res[k].total_seconds:8.2f}' for k in algos))
print(f"{'GEOMEAN':14s} {'':6s} " + ' '.join(f'{np.exp(np.mean(np.log(speed[k]))):8.2f}' for k in algos))
