"""Seeded fault-campaign workloads (section-3 defect catalog).

Every workload uses the paper's four static defect kinds with pipes at
2 kOhm and 4 kOhm, the three oracles (logic, built-in detector, Iddq) and
the batched campaign engine.  The same seed always yields the same
circuit, defect list and oracles; the program under test receives only
those.

* ``chain_sparse`` -- a 40-stage buffer chain with one shared variant-3
  monitor (139 unknowns: above ``sparse_threshold``, so the sparse
  path).  The defects are a seeded sample of the 1218-defect catalog,
  stratified by kind and, within a kind, by cell site, so every seed
  keeps the catalog's kind mix.
* ``network_dense`` -- an ISCAS-like network of 16 gates and 5 inputs
  lowered to transistors, driven by a DC input vector, with one shared
  monitor over every gate output (107 unknowns: the dense path).  The
  defects are the full 514-defect catalog of the uninstrumented design
  in a seeded order.  Network and input vector come from the fixed
  ``NETWORK_SEED``: between networks drawn from different seeds the
  cost per defect differs up to twofold, mostly with the number of
  batch members that diverge (each one holds its whole batch to the
  iteration limit), which would swamp any change a later commit makes.
* ``store_rerun`` -- a 12-stage chain with its full 406-defect catalog
  in a seeded order (which sets batch and chunk composition).
"""

from __future__ import annotations

import random
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.circuit.components import VoltageSource
from repro.circuit.netlist import Circuit
from repro.cml import buffer_chain
from repro.cml.technology import NOMINAL
from repro.dft import build_shared_monitor
from repro.faults import (Defect, FlagOracle, IddqOracle, LogicOracle,
                          Oracle, enumerate_defects)
from repro.sim.mna import structure_for
from repro.sim.options import DEFAULT_OPTIONS
from repro.testgen.circuits import iscas_like
from repro.testgen.synthesis import synthesize

KINDS = ("pipe", "terminal-short", "resistor-short", "resistor-open")
PIPE_RESISTANCES = (2e3, 4e3)

CHAIN_SPARSE_STAGES = 40
#: About one defect in this many of each kind is sampled on
#: ``chain_sparse``; it divides the 40 defects of each stage template.
#: At one in ten, Newton iterations per defect (and with them the cost
#: per defect) differed by up to 18% between seeds; at one in five, by
#: about 5%.
CHAIN_SPARSE_STRIDE = 5
NETWORK_GATES = 16
NETWORK_INPUTS = 5
NETWORK_SEED = 1
STORE_RERUN_STAGES = 12


@dataclass
class Workload:
    """One generated campaign input: circuit, oracles and defects."""

    name: str
    seed: int
    circuit: Circuit
    oracles: List[Oracle]
    defects: List[Defect]
    shape: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> Dict[str, object]:
        """Size, solver path and defect mix, for the benchmark output."""
        unknowns = structure_for(self.circuit).n_unknowns
        return dict(
            workload=self.name, seed=self.seed, **self.shape,
            unknowns=unknowns,
            path=("sparse" if unknowns >= DEFAULT_OPTIONS.sparse_threshold
                  else "dense"),
            defects=len(self.defects),
            by_kind=dict(Counter(d.kind for d in self.defects)))


def _catalog(circuit: Circuit) -> List[Defect]:
    return list(enumerate_defects(circuit, kinds=KINDS,
                                  pipe_resistances=PIPE_RESISTANCES))


def _site_template(defect: Defect) -> str:
    """The defect with instance numbers removed (``X12.Q1`` -> ``X#.Q1``)."""
    return re.sub(r"\d+(?=\.)", "#", defect.describe())


def stratified_sample(catalog: Sequence[Defect], stride: int,
                      rng: random.Random) -> List[Defect]:
    """About one defect in ``stride`` of every kind, spread over sites.

    Each kind gets ``round(count / stride)`` defects.  Within a kind
    the defects are grouped by site template; a template of ``c``
    defects gives ``c // stride`` of them, drawn at random, and the
    rest of the kind's quota is drawn from the ``c % stride`` left over
    in each template.  So the number of defects of every kind and of
    every large template is the same for each seed; the seed picks
    which instances.  Catalog order is kept.
    """
    position = {id(defect): index for index, defect in enumerate(catalog)}
    by_kind: Dict[str, Dict[str, List[Defect]]] = defaultdict(dict)
    for defect in catalog:
        by_kind[defect.kind].setdefault(_site_template(defect),
                                        []).append(defect)
    chosen: List[Defect] = []
    for groups in by_kind.values():
        quota = round(sum(len(members) for members in groups.values())
                      / stride)
        remainder: List[Defect] = []
        for members in groups.values():
            members = rng.sample(members, len(members))
            take = len(members) // stride
            chosen.extend(members[:take])
            remainder.extend(members[take:take + len(members) % stride])
            quota -= take
        chosen.extend(rng.sample(remainder, min(quota, len(remainder))))
    return sorted(chosen, key=lambda defect: position[id(defect)])


def _chain(stages: int):
    chain = buffer_chain(NOMINAL, n_stages=stages, frequency=100e6)
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=NOMINAL)
    oracles = [LogicOracle(chain.output_nets),
               FlagOracle(monitor.nets.flag, monitor.nets.flagb),
               IddqOracle()]
    return chain.circuit, oracles


def chain_sparse(seed: int) -> Workload:
    circuit, oracles = _chain(CHAIN_SPARSE_STAGES)
    catalog = _catalog(circuit)
    defects = stratified_sample(catalog, CHAIN_SPARSE_STRIDE,
                                random.Random(seed))
    return Workload("chain_sparse", seed, circuit, oracles, defects,
                    dict(stages=CHAIN_SPARSE_STAGES, catalog=len(catalog)))


def network_dense(seed: int) -> Workload:
    rng = random.Random(NETWORK_SEED)
    network = iscas_like(rng, n_gates=NETWORK_GATES,
                         n_inputs=NETWORK_INPUTS)
    design = synthesize(network, NOMINAL)
    circuit = design.circuit
    for signal in network.primary_inputs:
        net_p, net_n = design.pair(signal)
        high = rng.random() < 0.5
        circuit.add(VoltageSource(f"V_{signal}", net_p, "0",
                                  NOMINAL.vhigh if high else NOMINAL.vlow))
        circuit.add(VoltageSource(f"V_{signal}b", net_n, "0",
                                  NOMINAL.vlow if high else NOMINAL.vhigh))
    # Only the functional logic is attacked: the catalog is taken before
    # the monitor is inserted.
    defects = _catalog(circuit)
    pairs = design.gate_output_pairs()
    monitor = build_shared_monitor(circuit, pairs, tech=NOMINAL)
    oracles = [LogicOracle(pairs),
               FlagOracle(monitor.nets.flag, monitor.nets.flagb),
               IddqOracle()]
    random.Random(seed).shuffle(defects)
    cells = Counter(gate.cell_type for gate in network.gates.values())
    return Workload("network_dense", seed, circuit, oracles, defects,
                    dict(gates=NETWORK_GATES, inputs=NETWORK_INPUTS,
                         network_seed=NETWORK_SEED, cells=dict(cells)))


def store_rerun(seed: int) -> Workload:
    circuit, oracles = _chain(STORE_RERUN_STAGES)
    defects = _catalog(circuit)
    random.Random(seed).shuffle(defects)
    return Workload("store_rerun", seed, circuit, oracles, defects,
                    dict(stages=STORE_RERUN_STAGES))


BUILDERS = {
    "chain_sparse": chain_sparse,
    "network_dense": network_dense,
    "store_rerun": store_rerun,
}
