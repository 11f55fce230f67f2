import sys, numpy as np
from repro.datasets import load
from repro.spgemm import MultiplyContext, OuterProductSpGEMM, RowProductSpGEMM
from repro.core import BlockReorganizer, ReorganizerOptions
from repro.gpusim import GPUSimulator, TITAN_XP, CostModel

overrides = {}
for kv in sys.argv[1:]:
    k, v = kv.split('='); overrides[k] = float(v)
costs = CostModel().with_overrides(**overrides)
sim = GPUSimulator(TITAN_XP, costs)
names = ['filter3d','harbor','2cube_sphere','mario002','offshore','youtube','as_caida','loc_gowalla','slashdot','web_notredame']
algos = {
    'row': RowProductSpGEMM(costs), 'outer': OuterProductSpGEMM(costs), 'BR': BlockReorganizer(costs),
    'Split': BlockReorganizer(costs, options=ReorganizerOptions(enable_gathering=False, enable_limiting=False)),
    'Gather': BlockReorganizer(costs, options=ReorganizerOptions(enable_splitting=False, enable_limiting=False)),
    'Limit': BlockReorganizer(costs, options=ReorganizerOptions(enable_splitting=False, enable_gathering=False)),
}
speed = {k: [] for k in algos}
gfs = []
for name in names:
    ds = load(name); ctx = MultiplyContext.build(ds.a, ds.b); ctx.c_row_nnz
    r = {k: a.simulate(ctx, sim).total_seconds for k, a in algos.items()}
    for k in algos: speed[k].append(r['row']/r[k])
    gfs.append(2*ctx.total_work/r['row']/1e9)
def g(k):
    return np.exp(np.mean(np.log(speed[k])))

def go(k):
    return np.exp(np.mean(np.log(np.array(speed[k])/np.array(speed['outer']))))

print(f"{str(overrides):60s} rowGF={np.mean(gfs):5.2f} outer={g('outer'):.2f} BR={g('BR'):.2f} | Split={go('Split'):.2f} Gather={go('Gather'):.2f} Limit={go('Limit'):.2f} BRvO={go('BR'):.2f}")
