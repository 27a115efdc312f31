"""The driver's program corpus: paper examples, on-disk sources, generators.

A corpus item is just (name, toy-language source text).  The built-in corpus
bundles every scenario the repository knows how to exercise:

* ``paper``    — the worked examples of the paper (the section 3.3.2
  polynomial scaling program, the section 3.3.1 subtree move, and the full
  toy-language Barnes–Hut code of section 4),
* ``examples`` — the ``examples/corpus/*.ptr`` source files shipped with the
  repository (and any directory of ``.ptr`` files you point the CLI at),
* ``stress``   — the :mod:`repro.bench.stress` generators (wide matrices,
  deep CFGs, seeded random programs), sized to finish quickly.

``builtin`` is the union of all three — the corpus the acceptance run
(`python -m repro analyze --corpus builtin`) processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.adds.library import standard_source
from repro.lang.pretty import unparse

#: file extension of on-disk toy-language programs
SOURCE_SUFFIX = ".ptr"


@dataclass(frozen=True)
class CorpusItem:
    """One program of a batch run."""

    name: str
    source: str
    description: str = ""


# -- paper examples ----------------------------------------------------------
_SCALE_SRC = """
function build(n)
{ var head; var p; var i;
  head = NULL;
  i = 0;
  while i < n
  { p = new ListNode;
    p->coef = i + 1;
    p->exp = i;
    p->next = head;
    head = p;
    i = i + 1;
  }
  return head;
}

function scale(head, c)
{ var p;
  p = head;
  while p <> NULL
  { p->coef = p->coef * c;
    p = p->next;
  }
  return head;
}

function main()
{ var h;
  h = build(64);
  h = scale(h, 3);
  return h;
}
"""

_SUBTREE_MOVE_SRC = """
procedure move_subtree(p1, p2)
{ p1->left = p2->left;
  p2->left = NULL;
}
"""


def paper_corpus() -> list[CorpusItem]:
    from repro.nbody.toy_program import barnes_hut_toy_program

    return [
        CorpusItem(
            name="paper/polynomial_scale",
            source=standard_source("ListNode") + _SCALE_SRC,
            description="section 3.3.2 coefficient-scaling loop (build/scale/main)",
        ),
        CorpusItem(
            name="paper/subtree_move",
            source=standard_source("BinTree") + _SUBTREE_MOVE_SRC,
            description="section 3.3.1 temporary abstraction break and repair",
        ),
        CorpusItem(
            name="paper/barnes_hut",
            source=unparse(barnes_hut_toy_program()),
            description="section 4 Barnes-Hut tree code (BHL1/BHL2)",
        ),
    ]


# -- on-disk sources ---------------------------------------------------------
def _repo_root() -> Path:
    return Path(__file__).resolve().parents[3]


def examples_corpus(directory: str | Path | None = None) -> list[CorpusItem]:
    """Every ``*.ptr`` file under ``directory`` (default: ``examples/corpus``)."""
    root = Path(directory) if directory is not None else _repo_root() / "examples" / "corpus"
    if not root.is_dir():
        return []
    return [
        CorpusItem(
            name=f"examples/{path.stem}",
            source=path.read_text(),
            description=str(path),
        )
        for path in sorted(root.glob(f"*{SOURCE_SUFFIX}"))
    ]


def load_source_file(path: str | Path) -> CorpusItem:
    p = Path(path)
    return CorpusItem(name=p.stem, source=p.read_text(), description=str(p))


# -- generated stress programs ------------------------------------------------
def stress_corpus(full: bool = False) -> list[CorpusItem]:
    import random

    # imported here: ``repro.bench`` loads the paper's whole experiment
    # harness, which a CLI start that names no generated corpus never needs
    from repro.bench.stress import (
        call_web_program_source,
        deep_program_source,
        random_program_source,
        wide_program_source,
    )

    wide = 50 if full else 24
    depth, segment, deep_vars = (8, 6, 30) if full else (4, 4, 12)
    web = 96 if full else 48
    prefix = standard_source("ListNode")
    items = [
        CorpusItem(
            name=f"stress/wide_{wide}",
            source=prefix + wide_program_source(wide),
            description="many simultaneously live pointer variables",
        ),
        CorpusItem(
            name=f"stress/deep_{depth}",
            source=prefix + deep_program_source(depth, segment, deep_vars),
            description="deeply nested traversal loops",
        ),
        CorpusItem(
            name=f"stress/callweb_{web}",
            source=prefix + call_web_program_source(web, seed=7, prefix="web"),
            description="many tiny functions over a deep-and-wide call DAG",
        ),
    ]
    for seed in (1, 2, 3):
        items.append(
            CorpusItem(
                name=f"stress/random_{seed}",
                source=prefix + random_program_source(random.Random(seed)),
                description=f"seeded random statement mix (seed {seed})",
            )
        )
    return items


# -- the named corpora the CLI exposes ----------------------------------------
def builtin_corpus(full: bool = False) -> list[CorpusItem]:
    return paper_corpus() + examples_corpus() + stress_corpus(full=full)


def bench_corpus(full: bool = False) -> list[CorpusItem]:
    """The throughput-benchmark corpus: ``builtin`` plus a ~200-function
    call web, so parallel-scaling numbers are measured on a work mix where
    scheduling actually matters (one program far larger than the rest, of
    hundreds of cheap, dependent functions — not just a handful of big
    ones)."""
    from repro.bench.stress import call_web_program_source

    web = 240 if full else 200
    return builtin_corpus(full=full) + [
        CorpusItem(
            name=f"stress/callweb_{web}",
            source=standard_source("ListNode")
            + call_web_program_source(web, seed=11, prefix="bw"),
            description="benchmark-sized call web (scheduler stress)",
        )
    ]


CORPORA = {
    "builtin": builtin_corpus,
    "bench": bench_corpus,
    "paper": paper_corpus,
    "examples": examples_corpus,
    "stress": stress_corpus,
}


def corpus_named(name: str, full: bool = False) -> list[CorpusItem]:
    try:
        factory = CORPORA[name]
    except KeyError:
        raise KeyError(
            f"unknown corpus {name!r}; available: {', '.join(sorted(CORPORA))}"
        ) from None
    if name in ("builtin", "bench", "stress"):
        return factory(full=full)
    return factory()
