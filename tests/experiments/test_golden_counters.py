"""Golden simulated counters: every Table-2 workload under every scheme.

Pins the exact ``RunResult.counters`` of small seed-1 runs so that any
change to the simulator's hot paths (cache kernels, cycle charging,
backing-memory writes) that moves a single simulated count fails here,
independently of the equivalence suites that compare the scalar and
bulk paths against each other.  Two machines are covered:

* ``table1`` -- the paper's Table-1 machine, where these small inputs
  stay L1d-resident after warm-up;
* ``tiny`` -- 512 B L1d / 1 KiB L2 / 2 KiB LLC, so the same programs
  miss at every level, reach DRAM and write dirty victims back.

``CROSSOVER`` adds the one regime neither covers: Dijkstra at 128
vertices on the Table-1 machine (the Fig. 7a crossover), whose
1,024-line adjacency DS overflows some L1d sets while the rest stay
resident, so every software-CT sweep mixes hits and L2 refills.

The values were recorded from the simulator before its bulk kernels
were last optimised; a legitimate model change must re-record them and
say why.
"""

import pytest

from repro.core.machine import MachineConfig
from repro.experiments.runner import run_workload

KEYS = (
    "cycles",
    "insts",
    "l1d_refs",
    "l1d_hits",
    "l1d_misses",
    "l2_hits",
    "l2_misses",
    "llc_hits",
    "llc_misses",
    "dram_accesses",
    "bia_lookups",
    "ct_loads",
    "ct_stores",
)

SIZES = {
    "table1": {
        "dijkstra": 12,
        "histogram": 150,
        "permutation": 150,
        "binary_search": 300,
        "heappop": 300,
    },
    "tiny": {
        "dijkstra": 12,
        "histogram": 300,
        "permutation": 300,
        "binary_search": 600,
        "heappop": 600,
    },
}

#: (machine, workload, scheme) -> counters in ``KEYS`` order
GOLDEN = {
    ("table1", "dijkstra", "insecure"): (
        2684, 2002, 682, 682, 0, 0, 0, 0, 0, 0, 0, 0, 0
    ),
    ("table1", "dijkstra", "ct"): (
        3346, 2686, 714, 660, 0, 0, 0, 0, 0, 0, 0, 0, 0
    ),
    ("table1", "dijkstra", "ct-scalar"): (
        3709, 3049, 714, 660, 0, 0, 0, 0, 0, 0, 0, 0, 0
    ),
    ("table1", "dijkstra", "bia-l1d"): (
        5566, 4686, 704, 528, 0, 0, 0, 0, 0, 0, 176, 165, 11
    ),
    ("table1", "dijkstra", "bia-l2"): (
        7854, 4686, 704, 528, 0, 0, 0, 0, 0, 0, 176, 165, 11
    ),
    ("table1", "histogram", "insecure"): (
        1584, 1440, 144, 144, 0, 0, 0, 0, 0, 0, 0, 0, 0
    ),
    ("table1", "histogram", "ct"): (
        5520, 4512, 1008, 1008, 0, 0, 0, 0, 0, 0, 0, 0, 0
    ),
    ("table1", "histogram", "ct-scalar"): (
        6960, 5952, 1008, 1008, 0, 0, 0, 0, 0, 0, 0, 0, 0
    ),
    ("table1", "histogram", "bia-l1d"): (
        8928, 8592, 192, 48, 0, 0, 0, 0, 0, 0, 144, 96, 48
    ),
    ("table1", "histogram", "bia-l2"): (
        10800, 8592, 192, 48, 0, 0, 0, 0, 0, 0, 144, 96, 48
    ),
    ("table1", "permutation", "insecure"): (
        384, 288, 96, 96, 0, 0, 0, 0, 0, 0, 0, 0, 0
    ),
    ("table1", "permutation", "ct"): (
        4416, 3408, 1008, 1008, 0, 0, 0, 0, 0, 0, 0, 0, 0
    ),
    ("table1", "permutation", "ct-scalar"): (
        5856, 4848, 1008, 1008, 0, 0, 0, 0, 0, 0, 0, 0, 0
    ),
    ("table1", "permutation", "bia-l1d"): (
        4320, 4080, 144, 48, 0, 0, 0, 0, 0, 0, 96, 48, 48
    ),
    ("table1", "permutation", "bia-l2"): (
        5568, 4080, 144, 48, 0, 0, 0, 0, 0, 0, 96, 48, 48
    ),
    ("table1", "binary_search", "insecure"): (
        888, 768, 120, 120, 0, 0, 0, 0, 0, 0, 0, 0, 0
    ),
    ("table1", "binary_search", "ct"): (
        8208, 5928, 2280, 2280, 0, 0, 0, 0, 0, 0, 0, 0, 0
    ),
    ("table1", "binary_search", "ct-scalar"): (
        15048, 12768, 2280, 2280, 0, 0, 0, 0, 0, 0, 0, 0, 0
    ),
    ("table1", "binary_search", "bia-l1d"): (
        9408, 9168, 120, 0, 0, 0, 0, 0, 0, 0, 120, 120, 0
    ),
    ("table1", "binary_search", "bia-l2"): (
        10968, 9168, 120, 0, 0, 0, 0, 0, 0, 0, 120, 120, 0
    ),
    ("table1", "heappop", "insecure"): (
        1560, 1248, 312, 312, 0, 0, 0, 0, 0, 0, 0, 0, 0
    ),
    ("table1", "heappop", "ct"): (
        32808, 24576, 8232, 8232, 0, 0, 0, 0, 0, 0, 0, 0, 0
    ),
    ("table1", "heappop", "ct-scalar"): (
        49224, 40992, 8232, 8232, 0, 0, 0, 0, 0, 0, 0, 0, 0
    ),
    ("table1", "heappop", "bia-l1d"): (
        23592, 22704, 456, 24, 0, 0, 0, 0, 0, 0, 432, 288, 144
    ),
    ("table1", "heappop", "bia-l2"): (
        29208, 22704, 456, 24, 0, 0, 0, 0, 0, 0, 432, 288, 144
    ),
    ("tiny", "dijkstra", "insecure"): (
        2875, 2002, 682, 672, 10, 9, 1, 1, 0, 0, 0, 0, 0
    ),
    ("tiny", "dijkstra", "ct"): (
        6426, 2686, 714, 605, 55, 0, 55, 55, 0, 0, 0, 0, 0
    ),
    ("tiny", "dijkstra", "ct-scalar"): (
        6789, 3049, 714, 605, 55, 0, 55, 55, 0, 0, 0, 0, 0
    ),
    ("tiny", "dijkstra", "bia-l1d"): (
        9004, 4989, 759, 528, 55, 0, 55, 55, 0, 0, 176, 165, 11
    ),
    ("tiny", "dijkstra", "bia-l2"): (
        9070, 4801, 727, 528, 0, 4, 19, 19, 0, 0, 176, 165, 11
    ),
    ("tiny", "histogram", "insecure"): (
        2683, 1440, 144, 109, 35, 21, 14, 14, 0, 0, 0, 0, 0
    ),
    ("tiny", "histogram", "ct"): (
        56176, 7104, 1872, 912, 960, 160, 800, 800, 0, 0, 0, 0, 0
    ),
    ("tiny", "histogram", "ct-scalar"): (
        58912, 9840, 1872, 912, 960, 160, 800, 800, 0, 0, 0, 0, 0
    ),
    ("tiny", "histogram", "bia-l1d"): (
        74320, 16944, 2592, 992, 1456, 656, 800, 800, 0, 0, 144, 96, 48
    ),
    ("tiny", "histogram", "bia-l2"): (
        35980, 11108, 932, 45, 3, 444, 299, 299, 0, 0, 144, 96, 48
    ),
    ("tiny", "permutation", "insecure"): (
        1509, 288, 96, 62, 34, 19, 15, 15, 0, 0, 0, 0, 0
    ),
    ("tiny", "permutation", "ct"): (
        55072, 6000, 1872, 912, 960, 160, 800, 800, 0, 0, 0, 0, 0
    ),
    ("tiny", "permutation", "ct-scalar"): (
        57808, 8736, 1872, 912, 960, 160, 800, 800, 0, 0, 0, 0, 0
    ),
    ("tiny", "permutation", "bia-l1d"): (
        35180, 7536, 1296, 576, 624, 212, 412, 412, 0, 0, 96, 48, 48
    ),
    ("tiny", "permutation", "bia-l2"): (
        17136, 4992, 448, 45, 3, 152, 155, 155, 0, 0, 96, 48, 48
    ),
    ("tiny", "binary_search", "insecure"): (
        5654, 852, 132, 64, 68, 18, 50, 46, 4, 8, 0, 0, 0
    ),
    ("tiny", "binary_search", "ct"): (
        1089456, 11544, 5016, 0, 5016, 0, 5016, 1056, 3960, 3960, 0, 0, 0
    ),
    ("tiny", "binary_search", "ct-scalar"): (
        1104504, 26592, 5016, 0, 5016, 0, 5016, 1056, 3960, 3960, 0, 0, 0
    ),
    ("tiny", "binary_search", "bia-l1d"): (
        414276, 29892, 4092, 0, 3960, 0, 3960, 3168, 792, 792, 132, 132, 0
    ),
    ("tiny", "binary_search", "bia-l2"): (
        503112, 24612, 3036, 0, 0, 0, 2904, 1320, 1584, 1584, 132, 132, 0
    ),
    ("tiny", "heappop", "insecure"): (
        7215, 1384, 344, 305, 39, 17, 22, 12, 10, 20, 0, 0, 0
    ),
    ("tiny", "heappop", "ct"): (
        3632448, 51624, 18264, 6104, 12160, 0, 12160, 2560, 9600, 14408, 0, 0, 0
    ),
    ("tiny", "heappop", "ct-scalar"): (
        3668928, 88104, 18264, 6104, 12160, 0, 12160, 2560, 9600, 14408, 0, 0, 0
    ),
    ("tiny", "heappop", "bia-l1d"): (
        1955864, 81864, 16184, 5448, 10256, 0, 10256, 6790, 3466, 6415, 480, 320, 160
    ),
    ("tiny", "heappop", "bia-l2"): (
        2139648, 71624, 13624, 24, 0, 4800, 8320, 4000, 4320, 7680, 480, 320, 160
    ),
}


#: (workload, size, scheme) -> counters in ``KEYS`` order, Table-1 machine
CROSSOVER = {
    ("dijkstra", 128, "ct"): (
        1918716, 1446276, 1108456, 179832, 18288, 18288, 0, 0, 0, 0, 0, 0, 0
    ),
    ("dijkstra", 128, "ct-scalar"): (
        2314956, 1842516, 1108456, 179832, 18288, 18288, 0, 0, 0, 0, 0, 0, 0
    ),
}


def _config(machine: str, scheme: str):
    if machine == "table1":
        return None  # the scheme's own Table-1 machine
    return MachineConfig(
        l1d_size=512,
        l1d_assoc=2,
        l2_size=1024,
        l2_assoc=4,
        llc_size=2048,
        llc_assoc=4,
        bia_level="L2" if scheme == "bia-l2" else "L1D",
    )


@pytest.mark.parametrize("machine, workload, scheme", sorted(GOLDEN))
def test_counters_match_golden(machine, workload, scheme):
    result = run_workload(
        workload,
        SIZES[machine][workload],
        scheme,
        seed=1,
        config=_config(machine, scheme),
    )
    got = tuple(result.counters[k] for k in KEYS)
    assert dict(zip(KEYS, got)) == dict(
        zip(KEYS, GOLDEN[machine, workload, scheme])
    )


@pytest.mark.parametrize("workload, size, scheme", sorted(CROSSOVER))
def test_crossover_counters_match_golden(workload, size, scheme):
    result = run_workload(workload, size, scheme, seed=1)
    got = tuple(result.counters[k] for k in KEYS)
    assert dict(zip(KEYS, got)) == dict(
        zip(KEYS, CROSSOVER[workload, size, scheme])
    )
