"""Generic fixpoint solvers over a CFG.

Two interchangeable engines, shared by the path-matrix analysis and the
k-limited storage-graph baseline:

* :func:`solve_worklist` — the engine every production fixpoint runs on.
  Sweeps run in reverse-postorder priority, but a block is only re-joined
  and re-transferred when the exit state of one of its predecessors
  actually changed (tracked by object identity: states are immutable
  values, so unchanged predecessor objects mean an unchanged input).  On an
  acyclic CFG every block is transferred exactly once; with loops, only the
  blocks inside the changed region are revisited.  It solves a function's
  CFG for ``PathMatrixAnalysis.analyze_function`` and for
  ``KLimitedAnalysis``, and, through :func:`solve_body`, one iteration of a
  loop body with primed traversal variables for ``analyze_loop_dependence``
  and ``KLimitedAnalysis.loop_traversal_independent``.

* :func:`solve_roundrobin` — the seed's original engine, retained as the
  reference the tests compare against (``baseline_roundrobin``): sweep
  **every** block in reverse postorder, repeat until a whole sweep changes
  nothing.

Both engines are parameterized over the abstract state: ``transfer(block,
state) -> state`` applies a basic block, ``join(a, b) -> state`` merges
control flow, and ``same(a, b) -> bool`` detects convergence.  Both stop
after ``max_iterations`` sweeps; :attr:`SolveStats.converged` says whether
the last sweep changed nothing, i.e. whether the states returned are a
fixpoint at all.

The two engines see **identical state trajectories**, not merely equivalent
fixpoints, by construction: skipping a block whose input is unchanged cannot
alter any later state because transfers are deterministic.  This matters —
the path-matrix transfer rules are not monotone (e.g. the acyclic traversal
rule derives *better* facts from *stronger* inputs), so a free-order chaotic
iteration could legitimately settle on a different fixpoint.  Keeping the
sweep structure makes the worklist engine bit-identical to the baseline,
which the golden-equivalence suite asserts on every example program and on
randomly generated CFGs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple, TypeVar

from repro.lang.ast_nodes import Block, FunctionDecl, Return
from repro.lang.cfg import CFG, BasicBlock, build_cfg


State = TypeVar("State")

#: cap on per-block transfers (the seed capped whole sweeps at the same value)
MAX_FIXPOINT_ITERATIONS = 64


@dataclass
class SolveStats:
    """How much work a fixpoint run performed.

    ``iterations`` is the number of whole-CFG sweeps, for both engines
    (including the final sweep that observes no change); the worklist engine
    skips stable blocks *within* a sweep, which ``blocks_transferred`` —
    the count of transfer-function applications, directly comparable
    between the two engines — makes visible.  ``converged`` is True when
    the last sweep changed nothing; False means the solve stopped at the
    sweep cap and its states are not a fixpoint.
    """

    solver: str
    iterations: int = 0
    blocks_transferred: int = 0
    converged: bool = False


def _merged_input(
    cfg: CFG,
    block: BasicBlock,
    init: State,
    exits: Dict[int, State],
    join: Callable[[State, State], State],
) -> State | None:
    if block.index == cfg.entry:
        return init
    preds = [exits[p] for p in block.predecessors if p in exits]
    if not preds:
        return None
    merged = preds[0]
    for other in preds[1:]:
        merged = join(merged, other)
    return merged


def solve_roundrobin(
    cfg: CFG,
    init: State,
    transfer: Callable[[BasicBlock, State], State],
    join: Callable[[State, State], State],
    same: Callable[[State, State], bool],
    max_iterations: int = MAX_FIXPOINT_ITERATIONS,
) -> Tuple[Dict[int, State], Dict[int, State], SolveStats]:
    """The seed's round-robin Kleene iteration (kept as the baseline)."""
    order = cfg.reverse_postorder()
    entry: Dict[int, State] = {cfg.entry: init}
    exits: Dict[int, State] = {}
    stats = SolveStats(solver="roundrobin")
    for iteration in range(max_iterations):
        changed = False
        for idx in order:
            block = cfg.block(idx)
            block_in = _merged_input(cfg, block, init, exits, join)
            if block_in is None:
                continue
            old_in = entry.get(idx)
            if old_in is None or not same(old_in, block_in):
                entry[idx] = block_in
                changed = True
            else:
                block_in = old_in
            block_out = transfer(block, block_in)
            stats.blocks_transferred += 1
            old_out = exits.get(idx)
            if old_out is None or not same(old_out, block_out):
                exits[idx] = block_out
                changed = True
        stats.iterations = iteration + 1
        if not changed:
            stats.converged = True
            break
    return entry, exits, stats


def solve_worklist(
    cfg: CFG,
    init: State,
    transfer: Callable[[BasicBlock, State], State],
    join: Callable[[State, State], State],
    same: Callable[[State, State], bool],
    max_iterations: int = MAX_FIXPOINT_ITERATIONS,
) -> Tuple[Dict[int, State], Dict[int, State], SolveStats]:
    """Predecessor-triggered iteration in reverse-postorder priority.

    Sweeps mirror the round-robin engine, but each block first checks the
    identity signature of its predecessors' exit states: if none changed
    since the block was last processed, neither the join nor the transfer is
    re-run (a deterministic transfer of an unchanged input reproduces the
    recorded exit).  The state trajectory — and therefore the result — is
    exactly the round-robin engine's, while stable regions cost one tuple
    comparison per sweep instead of a join, a matrix copy per statement, and
    a dense equivalence scan.
    """
    order = cfg.reverse_postorder()
    entry: Dict[int, State] = {}
    exits: Dict[int, State] = {}
    #: per block, the predecessor-exit objects its input was last built from
    signatures: Dict[int, Tuple[State, ...]] = {}
    stats = SolveStats(solver="worklist")

    for sweep in range(max_iterations):
        changed = False
        for idx in order:
            block = cfg.block(idx)
            if idx == cfg.entry:
                block_in = init
            else:
                signature = tuple(
                    exits[p] for p in block.predecessors if p in exits
                )
                if not signature:
                    continue  # no predecessor has produced a state yet
                previous = signatures.get(idx)
                if (
                    previous is not None
                    and len(previous) == len(signature)
                    and all(a is b for a, b in zip(previous, signature))
                ):
                    continue  # unchanged input: recorded entry/exit still valid
                signatures[idx] = signature
                block_in = signature[0]
                for other in signature[1:]:
                    block_in = join(block_in, other)
            old_in = entry.get(idx)
            if old_in is None or not same(old_in, block_in):
                entry[idx] = block_in
                changed = True
            else:
                block_in = old_in
                if idx in exits:
                    # equal input value: re-transferring would reproduce the
                    # recorded exit, so only the signature needed refreshing
                    continue
            block_out = transfer(block, block_in)
            stats.blocks_transferred += 1
            old_out = exits.get(idx)
            if old_out is None or not same(old_out, block_out):
                exits[idx] = block_out
                changed = True
        stats.iterations = sweep + 1
        if not changed:
            stats.converged = True
            break
    return entry, exits, stats


def solve_body(
    body: Block,
    init: State,
    transfer: Callable[[BasicBlock, State], State],
    join: Callable[[State, State], State],
    same: Callable[[State, State], bool],
    max_iterations: int = MAX_FIXPOINT_ITERATIONS,
) -> Tuple[State, SolveStats]:
    """One iteration of a loop body: the state the next iteration sees.

    The body gets its own CFG, solved from ``init`` by
    :func:`solve_worklist`, so a loop nested in the body is iterated exactly
    as a function's fixpoint iterates it, and branches and bare blocks are
    lowered as they are there.  A ``return`` leaves the loop, so only the
    path that falls through the body's end reaches the next iteration; a
    body that returns on every path has none, and its exit state (the join
    of its returns) is returned instead.  Check ``converged`` on the stats
    returned.
    """
    cfg = build_cfg(FunctionDecl(name="<loop body>", body=body))
    _entry, exits, stats = solve_worklist(
        cfg, init, transfer, join, same, max_iterations=max_iterations
    )
    for pred in cfg.block(cfg.exit).predecessors:
        statements = cfg.block(pred).statements
        if pred in exits and not (statements and isinstance(statements[-1], Return)):
            return exits[pred], stats
    return exits[cfg.exit], stats
