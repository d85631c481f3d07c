"""The four benchmark workloads.

Each workload builds its inputs from a seed (`setup`), runs one input
through one pipeline path of the library (`op`, returning the verdict a
user of the command line would see), and judges that verdict against an
answer known from how the input was built (`verify`), never from the
layer under test.  Ops call the library only through attributes of the
`corps` package and `corps.typecheck`, so a tracer that replaces a layer
function in every `corps.*` module sees these calls too.

    check   parse -> check_program                     (`corps check`)
    chain   parse -> check -> inline_main -> normalize  (`corps normalize`)
    fanout  parse -> check -> project_network           (`corps project --all`)
    agree   parse -> epp_agreement over rr + random     (`corps simulate`)
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import corps
import corps.typecheck

import progen

FUEL = 100_000

CHECK_PROGRAMS = 1500

# The recursive descent parser spends about four frames per nesting level,
# so a chain much past 240 sends raises RecursionError at the default
# recursion limit.  The benchmark keeps the default limit and caps n.
CHAIN_MIN, CHAIN_MAX, CHAIN_COUNT = 40, 240, 128

FANOUT_MIN, FANOUT_MAX, FANOUT_COUNT = 8, 80, 128

AGREE_PROGRAMS = 512
AGREE_POOL_FACTOR = 2
AGREE_RANDOM_SCHEDULES = 11
AGREE_PRESETS = ("choreo", "siblings", "doxastic")
AGREE = ("agree",) * (1 + AGREE_RANDOM_SCHEDULES)
KNOWN_DISAGREEMENTS_FILE = Path(__file__).resolve().parent / "agree_known_disagreements.json"


@dataclass(frozen=True)
class Item:
    source: str
    expect: object
    schedule_seeds: tuple[int, ...] = ()
    index: int = -1  # place in the agree pool


def _load(source: str):
    program = corps.parse_program(source)
    return program, corps.typecheck.resolve_topology(program)


def _errors(program, topology):
    return [str(err) for err in corps.check_program(program, topology)]


# -- check ----------------------------------------------------------------------

def setup_check(seed: int, count: int) -> tuple[list[Item], dict[str, int]]:
    master = random.Random(f"check:{seed}")
    items = []
    for i in range(count):
        preset = progen.PRESETS[i % len(progen.PRESETS)]
        source, main_type = progen.ProgramGen(master.getrandbits(32),
                                              preset).gen_program()
        items.append(Item(source, f"OK : {main_type}"))
    return items, {}


def op_check(item: Item):
    program, topology = _load(item.source)
    errors = _errors(program, topology)
    return errors or f"OK : {corps.type_str(program.main_type)}"


# -- chain ------------------------------------------------------------------------

def setup_chain(seed: int, count: int) -> tuple[list[Item], dict[str, int]]:
    rng = random.Random(f"chain:{seed}")
    items = []
    for n in progen.stratified(rng, CHAIN_MIN, CHAIN_MAX, count):
        source, holder = progen.chain_program(n)
        items.append(Item(source, (f"{holder}.()", "Value", n)))
    return items, {}


def op_chain(item: Item):
    program, topology = _load(item.source)
    errors = _errors(program, topology)
    if errors:
        return errors
    expr, _ = corps.inline_main(program)
    nf, cls, steps = corps.normalize(corps.EvalMode.POSITIVE_COMM, expr, FUEL)
    return corps.expr_str(nf), cls.value, steps


# -- fanout -----------------------------------------------------------------------

def setup_fanout(seed: int, count: int) -> tuple[list[Item], dict[str, int]]:
    rng = random.Random(f"fanout:{seed}")
    items = []
    for k in progen.stratified(rng, FANOUT_MIN, FANOUT_MAX, count):
        sender = rng.randrange(k)
        items.append(Item(progen.fanout_program(k, sender), (k, sender)))
    return items, {}


def op_fanout(item: Item):
    program, topology = _load(item.source)
    errors = _errors(program, topology)
    if errors:
        return errors
    network = corps.project_network(program, topology)
    return {corps.path_str(address): corps.local_str(process)
            for address, process in network.processes.items()}


def verify_fanout(item: Item, verdict) -> bool:
    k, sender = item.expect
    receivers = [f"[P{i}]" for i in range(k) if i != sender]
    return (isinstance(verdict, dict)
            and set(verdict) == {"[]", f"[P{sender}]", *receivers}
            and verdict[f"[P{sender}]"].count("send_to [") == k - 1
            and all(verdict[r].count(f"recv_from [P{sender}]") == 1
                    for r in receivers))


# -- agree ------------------------------------------------------------------------

def _schedules(seeds: tuple[int, ...]):
    return [corps.RoundRobin()] + [corps.RandomPolicy(s) for s in seeds]


def agree_pool(count: int) -> list[Item]:
    """The agree candidates, the same for every seed.

    Program i of the pool comes from generator seed i, so the pool for a
    smaller `count` is a prefix of the full one, and a known disagreement
    is named by its pool index.
    """
    pool = []
    for i in range(count * AGREE_POOL_FACTOR):
        source, _ = progen.ProgramGen(i, AGREE_PRESETS[i % len(AGREE_PRESETS)],
                                      projectable=True).gen_program()
        rng = random.Random(f"agree-schedules:{i}")
        seeds = tuple(rng.getrandbits(32) for _ in range(AGREE_RANDOM_SCHEDULES))
        pool.append(Item(source, AGREE, seeds, i))
    return pool


def known_disagreements() -> dict[int, str]:
    """Pool index -> source of each program listed as a known disagreement."""
    listed = json.loads(KNOWN_DISAGREEMENTS_FILE.read_text(encoding="utf-8"))
    return {entry["index"]: entry["source"] for entry in listed}


def _projects(item: Item) -> bool:
    """Whether epp_agreement accepts the program, without running it."""
    program, topology = _load(item.source)
    try:
        corps.epp_agreement(program, [], topology, FUEL)
    except (corps.ProjectionError, corps.netsim.PreconditionError):
        return False
    return True


def setup_agree(seed: int, count: int) -> tuple[list[Item], dict[str, int]]:
    """One program from each of `count` bands of the length-sorted pool.

    Source length predicts an op's cost well, so drawing one program per
    band keeps the cost of a pass nearly the same from seed to seed.  The
    seed orders each band; the first program that epp_agreement accepts
    is taken.  Programs it rejects are left out and counted, and so are
    the ones listed in agree_known_disagreements.json: at the commit that
    added this benchmark, epp_agreement disagrees with the choreography on
    those (a library defect; see known_disagreements.py).  Any other
    disagreement fails the timed run.
    """
    known = known_disagreements()
    pool = sorted(agree_pool(count), key=lambda item: (len(item.source), item.index))
    rng = random.Random(f"agree:{seed}")
    items, excluded = [], {"rejected": 0, "known_disagreement": 0}
    for band in progen.bands(rng, pool, count):
        for item in band:
            if known.get(item.index) == item.source:
                excluded["known_disagreement"] += 1
            elif _projects(item):
                items.append(item)
                break
            else:
                excluded["rejected"] += 1
    # Run in random order: programs of like size run in the same stretch
    # of time otherwise, and one slow stretch would move a percentile.
    rng.shuffle(items)
    return items, excluded


def op_agree(item: Item):
    program, topology = _load(item.source)
    report = corps.epp_agreement(program, _schedules(item.schedule_seeds),
                                 topology, FUEL)
    return tuple(outcome for _, outcome in report.outcomes)


# ---------------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """`setup(seed, size)` builds `size` inputs and counts the candidates
    it left out; `verify` defaults to comparing the verdict with `expect`."""

    name: str
    size: int
    setup: Callable[[int, int], tuple[list[Item], dict[str, int]]]
    op: Callable[[Item], object]
    verify: Optional[Callable[[Item, object], bool]] = None

    def correct(self, item: Item, verdict) -> bool:
        if self.verify is not None:
            return self.verify(item, verdict)
        return verdict == item.expect


WORKLOADS = {w.name: w for w in (
    Workload("check", CHECK_PROGRAMS, setup_check, op_check),
    Workload("chain", CHAIN_COUNT, setup_chain, op_chain),
    Workload("fanout", FANOUT_COUNT, setup_fanout, op_fanout, verify_fanout),
    Workload("agree", AGREE_PROGRAMS, setup_agree, op_agree),
)}
