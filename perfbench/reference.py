"""Fixed reference program that measures how fast the host runs Python right now.

``run.py`` starts it as a fresh process before every timed process and
divides the run's timings by its CPU time, so that a host whose speed drifts
(a shared machine) does not move the end-to-end metrics. It imports nothing
from the program, so a change to the program cannot change it. Its work is
of the program's kind: a breadth-first search over an implicit graph of tuple
states, interned in a dict, with a frozenset label on every edge.

    python3 perfbench/reference.py    # prints {"states": 10010, "edges": 30030}
"""

import json

MODULI = (5, 7, 11, 13)
PHASES = 2
STEPS = (1, 2, 3)
STATES = 5 * 7 * 11 * 13 * PHASES
EDGES = STATES * len(STEPS)


def explore() -> tuple[int, int]:
    start = (0,) * (len(MODULI) + 1)
    ids = {start: 0}
    order = [start]
    edges = []
    i = 0
    while i < len(order):
        state = order[i]
        for step in STEPS:
            succ = tuple((v + step * (k + 1)) % m for k, (v, m) in enumerate(zip(state, MODULI)))
            succ += ((state[-1] + 1) % PHASES,)
            label = frozenset(f"x{v}" for v in succ[:2])
            j = ids.get(succ)
            if j is None:
                j = ids[succ] = len(order)
                order.append(succ)
            edges.append((i, j, label))
        i += 1
    return len(order), len(edges)


if __name__ == "__main__":
    states, edges = explore()
    print(json.dumps({"states": states, "edges": edges}))
