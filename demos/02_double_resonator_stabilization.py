"""Where to put the stabilization resistor, and how big it must be.

Two weakly coupled tanks, one destabilized by a negative resistance.  The
pole locus versus a shunt resistor tells the story: at node A the unstable
pair creeps toward nearby zeros and never leaves the right half-plane; at
node B it crosses into the left half-plane below a threshold value, which
the threshold driver finds by a Brent root search and confirms against the
exact eigenvalue oracle.
"""

import pathlib

import numpy as np

import pzid

OUT = pathlib.Path(__file__).with_name("out")
OUT.mkdir(exist_ok=True)


def fixture(stab_node):
    return pzid.Netlist((
        pzid.capacitor("c1", "B", "0", 1e-12),
        pzid.inductor("l1", "B", "0", 1e-9),
        pzid.resistor("rneg", "B", "0", -200.0),
        pzid.capacitor("c2", "A", "0", 2e-12),
        pzid.inductor("l2", "A", "0", 2e-9),
        pzid.resistor("r2", "A", "0", 300.0),
        pzid.resistor("rc", "A", "B", 5000.0),
        pzid.resistor("rstab", stab_node, "0", 1e6),
    ))


grid = pzid.FrequencyGrid(np.linspace(0.3e9, 8e9, 400))
cfg = pzid.SweepConfig(order=4, iters=15)
values = np.geomspace(10.0, 1e6, 17)

for node in ("A", "B"):
    net = fixture(node)
    traj = pzid.trace_pole_locus(net, pzid.current_probe(node), grid,
                                 "rstab", values, cfg)
    worst = np.nanmax(traj.tracks.real, axis=0)
    print(f"shunt at {node}: max Re over sweep stays in "
          f"[{worst.min():.3e}, {worst.max():.3e}] rad/s, "
          f"{len(traj.crossing_events)} crossing(s)")
    svg = OUT / f"locus_{node}.svg"
    svg.write_text(pzid.render_pole_map(traj))
    print("  locus plot:", svg)

net_b = fixture("B")
r_star = pzid.stabilization_threshold(net_b, pzid.current_probe("B"), grid,
                                      "rstab", 50.0, 1000.0, 1e-4, cfg)
print(f"node B stabilizes for R_stab below about {r_star:.1f} ohm")
