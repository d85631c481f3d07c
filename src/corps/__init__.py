"""Corps: hierarchical choreographic programming with belief-modal types."""

from .parser import ParseError, Program, parse_expr, parse_path, parse_program, parse_type
from .printer import expr_str, path_str, pretty_print, type_str
from .syntax import Expr, Path, Type, expr_equal, path_concat, substitute
from .topology import (
    Topology, TopologyError, flow_reachable, load_preset, parse_topology,
    relation_holds,
)
from .typecheck import Checker, TypeCheckError, check_program, inline_main
from .normalize import EvalMode, NormalFormClass, is_positive_value, is_value, normalize, step
from .projection import (
    MergeConflict, Network, ProjectionError, local_str, project,
    project_network,
)
from .netsim import DeadlockError, RandomPolicy, RoundRobin, epp_agreement, run
from .nicheck import NIConfig, Verdict, ni_check

__all__ = [name for name in dir() if not name.startswith("_")]
