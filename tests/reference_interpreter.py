"""Naive reference interpreter used as the independent oracle.

Re-implements the composite step semantics from scratch with plain loops and
dicts, reading only the model dataclasses' fields. It shares no run-time code
with the package: every fold, closure and priority rule is re-derived here in
the most literal way, deliberately without optimizations, so that agreement
with the package's interpreter is meaningful evidence.

All run-time states are plain data: machine states are strings, hierarchy
states are ("ha", sorted (machine, state) tuples), nested binding states are
("cfg", lattice, unit states, clock, outer state).
"""

from __future__ import annotations

import itertools


# --- sequential ------------------------------------------------------------

def ref_sa_run(sa, state, word):
    outputs = []
    steps = 0
    for sym in word:
        if sym not in sa.input_alphabet:
            raise ValueError(f"symbol {sym!r} outside alphabet")
        if (state, sym) not in sa.transitions:
            return state, tuple(outputs), steps, False
        outputs.append(sa.outputs[(state, sym)])
        state = sa.transitions[(state, sym)]
        steps += 1
    return state, tuple(outputs), steps, state in sa.finals


# --- hierarchical ----------------------------------------------------------

def _ref_ha_members(ha):
    return {sa.name: sa for sa in ha.sas}


def _ref_ha_depth(ha, name):
    depth = 0
    current = name
    while current != ha.root:
        for (owner, _), children in ha.gamma.items():
            if current in children:
                current = owner
                depth += 1
                break
        else:
            raise ValueError(f"{name} unreachable")
    return depth


def _ref_ha_open(ha, active, name):
    members = _ref_ha_members(ha)
    active[name] = members[name].initial
    for (owner, state), children in ha.gamma.items():
        if owner == name and state == members[name].initial:
            for child in sorted(children):
                _ref_ha_open(ha, active, child)


def _ref_ha_close(ha, active, name, state):
    for (owner, st), children in ha.gamma.items():
        if owner == name and st == state:
            for child in children:
                if child in active:
                    _ref_ha_close(ha, active, child, active[child])
                    del active[child]


def ref_ha_initial(ha):
    active = {}
    _ref_ha_open(ha, active, ha.root)
    return active


def ref_ha_step(ha, active, sym):
    """Returns (new active dict, output or None-if-stuck)."""
    members = _ref_ha_members(ha)
    enabled = []
    for sa in ha.sas:
        if sa.name in active and sym in sa.input_alphabet and (active[sa.name], sym) in sa.transitions:
            enabled.append((sa.name, _ref_ha_depth(ha, sa.name)))
    if not enabled:
        return active, None
    top = min(d for _, d in enabled)
    firing = [n for n, d in enabled if d == top]
    new_active = dict(active)
    output = None
    for name in firing:
        sa = members[name]
        old = active[name]
        target = sa.transitions[(old, sym)]
        if output is None:
            output = sa.outputs[(old, sym)]
        if target != old:
            _ref_ha_close(ha, new_active, name, old)
            new_active[name] = target
            for (owner, st), children in ha.gamma.items():
                if owner == name and st == target:
                    for child in sorted(children):
                        _ref_ha_open(ha, new_active, child)
    return new_active, output


def ref_ha_run(ha, active, word):
    outputs = []
    steps = 0
    for sym in word:
        new_active, out = ref_ha_step(ha, active, sym)
        if out is None:
            return active, tuple(outputs), steps, False
        active = new_active
        outputs.append(out)
        steps += 1
    root_sa = _ref_ha_members(ha)[ha.root]
    return active, tuple(outputs), steps, active[ha.root] in root_sa.finals


# --- cellular ----------------------------------------------------------

def ref_neighborhood(ca, lattice, i):
    nb = []
    for off in range(-ca.radius, ca.radius + 1):
        j = i + off
        if 0 <= j < len(lattice):
            nb.append(lattice[j])
        elif ca.boundary == "periodic":
            nb.append(lattice[j % len(lattice)])
        else:
            nb.append(ca.boundary_value)
    return tuple(nb)


def ref_ca_step(ca, lattice):
    return tuple(ca.rule[ref_neighborhood(ca, lattice, i)] for i in range(len(lattice)))


def ref_pca_step(pca, lattice, rng):
    """One uniform per cell, in index order; the first state whose cumulative probability exceeds it."""
    out = []
    for i in range(len(lattice)):
        pairs = pca.rule[ref_neighborhood(pca, lattice, i)]
        u = rng.random()
        acc = 0.0
        chosen = pairs[-1][0]
        for state, prob in pairs:
            acc += prob
            if u < acc:
                chosen = state
                break
        out.append(chosen)
    return tuple(out)


def ref_pca_distribution(pca, lattice):
    """Each successor's probability: per way to draw it, the product of its cells' probabilities."""
    supports = [pca.rule[ref_neighborhood(pca, lattice, i)] for i in range(len(lattice))]
    out = {}
    for combo in itertools.product(*supports):
        prob = 1.0
        for _, p in combo:
            prob *= p
        successor = tuple(state for state, _ in combo)
        out[successor] = out.get(successor, 0.0) + prob
    return out


def ref_ca_run(ca, lattice, t_max):
    trace = [tuple(lattice)]
    for _ in range(t_max):
        nxt = ref_ca_step(ca, trace[-1])
        if nxt == trace[-1]:
            return trace
        trace.append(nxt)
    return trace


# --- composite ---------------------------------------------------------

def ref_unit_initial(ma, unit):
    kind = type(unit).__name__
    if kind == "SaUnit":
        return ma.sa_set[unit.sa].initial
    if kind == "HaUnit":
        return ("ha", tuple(sorted(ref_ha_initial(ma.ha_set[unit.ha]).items())))
    binding = ma.bindings[unit.binding]
    return ref_binding_initial(ma, binding)


def ref_binding_initial(ma, binding):
    ca = ma.ca_set[binding.ca]
    if binding.seed is not None:
        lattice = tuple(binding.seed)
    else:
        lattice = (ca.cell_states[0],) * ca.width
    units = tuple(ref_unit_initial(ma, binding.cell_map[q]) for q in lattice)
    outer = ma.sa_set[binding.outer_sa].initial if binding.mode == "ca_from_sa" else None
    return ("cfg", lattice, units, 0, outer)


def ref_run_unit(ma, unit, state, block, rng=None):
    """Returns (new unit state, (final plain state, outputs, steps, accepted)).

    A probabilistic lattice, at any depth, draws from ``rng``: a tick runs
    its units in cell order first, then steps its lattice.
    """
    kind = type(unit).__name__
    if kind == "SaUnit":
        final, outputs, steps, ok = ref_sa_run(ma.sa_set[unit.sa], state, block)
        return final, (final, outputs, steps, ok)
    if kind == "HaUnit":
        active = dict(state[1])
        final, outputs, steps, ok = ref_ha_run(ma.ha_set[unit.ha], active, block)
        packed = ("ha", tuple(sorted(final.items())))
        return packed, (packed, outputs, steps, ok)
    binding = ma.bindings[unit.binding]
    if binding.mode == "sa_from_ca":
        new_cfg, per_cell, _ = ref_mode1_tick(ma, binding, state, block, rng)
        head = per_cell[0] if per_cell else (None, (), 0, True)
        return new_cfg, (new_cfg, head[1], len(block), head[3])
    new_cfg, output = ref_mode2_tick(ma, binding, state, state[1])
    outer_sa = ma.sa_set[binding.outer_sa]
    return new_cfg, (new_cfg, output, 1, new_cfg[4] in outer_sa.finals)


def ref_mode1_tick(ma, binding, cfg, block, rng=None):
    _, lattice, units, clock, outer = cfg
    ca = ma.ca_set[binding.ca]
    per_cell = []
    ran = []
    for i, q in enumerate(lattice):
        new_state, record = ref_run_unit(ma, binding.cell_map[q], units[i], block, rng)
        ran.append(new_state)
        per_cell.append(record)
    if type(ca).__name__ == "ProbabilisticCellularAutomaton":
        after = ref_pca_step(ca, lattice, rng)
    else:
        after = ref_ca_step(ca, lattice)
    new_units = []
    for i, q_new in enumerate(after):
        if q_new == lattice[i]:
            new_units.append(ran[i])
        else:
            new_units.append(ref_unit_initial(ma, binding.cell_map[q_new]))
    new_cfg = ("cfg", after, tuple(new_units), clock + 1, outer)
    output = per_cell[0][1] if per_cell else ()
    return new_cfg, tuple(per_cell), output


def ref_readout(readout, final):
    if readout.kind == "cell":
        return final[readout.cell]
    if readout.kind == "parity":
        return "1" if sum(1 for q in final if q == readout.target) % 2 == 1 else "0"
    return readout.table[final]


def ref_mode2_tick(ma, binding, cfg, seed_lattice):
    _, lattice, units, clock, outer_state = cfg
    ca = ma.ca_set[binding.ca]
    trace = ref_ca_run(ca, seed_lattice, binding.t_max)
    final = trace[-1]
    sym = ref_readout(binding.readout, final)
    outer_sa = ma.sa_set[binding.outer_sa]
    new_outer = outer_sa.transitions[(outer_state, sym)]
    out = outer_sa.outputs[(outer_state, sym)]
    new_units = []
    for i, q_new in enumerate(final):
        if q_new == lattice[i]:
            new_units.append(units[i])
        else:
            new_units.append(ref_unit_initial(ma, binding.cell_map[q_new]))
    return ("cfg", final, tuple(new_units), clock + 1, new_outer), (out,)


def ref_run(ma, lattice0, schedule):
    """Full run: returns (final cfg, list of per-tick (lattice_after, per_cell, output))."""
    binding = ma.bindings[ma.root_binding]
    ca = ma.ca_set[binding.ca]
    units = tuple(ref_unit_initial(ma, binding.cell_map[q]) for q in lattice0)
    outer = ma.sa_set[binding.outer_sa].initial if binding.mode == "ca_from_sa" else None
    cfg = ("cfg", tuple(lattice0), units, 0, outer)
    ticks = []
    for entry in schedule:
        if binding.mode == "sa_from_ca":
            cfg, per_cell, output = ref_mode1_tick(ma, binding, cfg, tuple(entry))
            ticks.append((cfg[1], per_cell, output))
        else:
            cfg, output = ref_mode2_tick(ma, binding, cfg, tuple(entry))
            ticks.append((cfg[1], None, output))
    return cfg, ticks


def _ref_unclocked(cfg):
    """A plain configuration with its clock, and every nested clock, set to zero."""
    _, lattice, units, _, outer = cfg
    units = tuple(_ref_unclocked(u) if isinstance(u, tuple) and u[0] == "cfg" else u for u in units)
    return ("cfg", lattice, units, 0, outer)


def ref_reachable(ma, universe, lattice0=None):
    """Clock-free configurations a breadth-first search over the ticks reaches.

    Universe entries are input blocks for an ``sa_from_ca`` root and seed
    lattices for a ``ca_from_sa`` root; ``lattice0`` defaults to the root's seed.
    """
    binding = ma.bindings[ma.root_binding]
    start = ref_binding_initial(ma, binding)
    if lattice0 is not None:
        units = tuple(ref_unit_initial(ma, binding.cell_map[q]) for q in lattice0)
        start = ("cfg", tuple(lattice0), units, 0, start[4])
    tick = ref_mode1_tick if binding.mode == "sa_from_ca" else ref_mode2_tick
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for cfg in frontier:
            for entry in universe:
                after = _ref_unclocked(tick(ma, binding, cfg, tuple(entry))[0])
                if after not in seen:
                    seen.add(after)
                    nxt.append(after)
        frontier = nxt
    return seen
