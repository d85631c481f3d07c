"""Seeded well-typed programs for the property suites.

The programs are `bench/progen`'s source text, parsed.  That generator
mirrors the typechecker's inference mode and produces only inferable
expressions: heads that can only be checked (functions, injections)
always carry a type annotation, so every reduct of a generated program
can be checked again, which the type-preservation suite relies on.
Every communication is generated under a relation query against the
topology, so the result typechecks by construction; the suites still
assert that.
"""

from __future__ import annotations

import functools

import progen
from corps.parser import Program, parse_program
from corps.topology import Topology, relation_holds


@functools.cache
def program(seed: int, preset: str, *, projectable: bool = False,
            depth: int = 7) -> Program:
    """Program `seed` of `preset`; shared between callers, as records are
    immutable."""
    text, _ = progen.ProgramGen(seed, preset, depth=depth,
                                projectable=projectable).gen_program()
    return parse_program(text)


class NIProgramGen(progen.ProgramGen):
    """Noninterference programs: one secret input `b : [B] (unit + unit)`
    and `main`, generated under the relations of any `topology`."""

    INPUT = ("bel", "B", ("sum", progen.UNIT, progen.UNIT))

    def __init__(self, seed: int, topology: Topology, **options):
        super().__init__(seed, topology.name, **options)
        self.topology = topology

    def _holds(self, kind, a, b) -> bool:
        return relation_holds(self.topology, kind, a, b)

    def gen_program(self) -> Program:
        depth = self.rng.randint(3, self.max_depth)
        main_ty = self.gen_type(3)
        main = self.gen_infer(main_ty, (), [("b", self.INPUT, ())], depth)
        head = f"topology {self.preset};\n" if self.preset else ""
        return parse_program(
            f"{head}input b : {progen.type_text(self.INPUT)};\n"
            f"main : {progen.type_text(main_ty)} = {progen.expr_text(main)};\n")
