"""Directive generation — the paper's §6 future-work step, implemented.

The three binary classifiers (directive / private / reduction) answer
*whether* a loop needs annotation; composing an actual ``#pragma omp`` line
additionally requires *which variables* go into each clause.  The
:class:`DirectiveGenerator` combines:

* PragFormer's three probabilities (the learned judgement), with
* the dependence analyzer's variable-level facts (which scalars are
  privatizable temps / inner loop variables, which accumulator a reduction
  affects and under which operator),

so the learned model decides *if* and the analysis fills in *what* — the
"full pipeline which generates OpenMP directives automatically" of §2.1/§6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.clang import For, parse_resilient, walk
from repro.clang.nodes import FuncDef
from repro.clang.pragma import Clause, OmpDirective
from repro.data.encoding import encode_batch
from repro.models.pragformer import PragFormer
from repro.s2s.depend import AnalysisPolicy, analyze_loop
from repro.tokenize import Vocab, robust_text_tokens

__all__ = ["GeneratedDirective", "DirectiveGenerator"]


@dataclass
class GeneratedDirective:
    """A generated annotation with the evidence behind it."""

    directive: Optional[str]          # full pragma text, or None
    p_directive: float
    p_private: Optional[float]
    p_reduction: Optional[float]
    private_vars: Tuple[str, ...]
    reduction_specs: Tuple[Tuple[str, str], ...]
    notes: List[str]


class DirectiveGenerator:
    """Compose complete OpenMP directives from classifiers + analysis."""

    def __init__(self, directive_model: PragFormer, vocab: Vocab,
                 private_model: Optional[PragFormer] = None,
                 private_vocab: Optional[Vocab] = None,
                 reduction_model: Optional[PragFormer] = None,
                 reduction_vocab: Optional[Vocab] = None,
                 max_len: int = 110, threshold: float = 0.5) -> None:
        self.directive_model = directive_model
        self.vocab = vocab
        self.private_model = private_model
        self.private_vocab = private_vocab or vocab
        self.reduction_model = reduction_model
        self.reduction_vocab = reduction_vocab or vocab
        self.max_len = max_len
        self.threshold = threshold
        # variable-level facts come from a permissive analysis: we want the
        # clause *arguments*, not a second opinion on parallelizability
        self._policy = AnalysisPolicy(unknown_call="pure",
                                      private_iteration_var=False)

    def _proba(self, model: PragFormer, vocab: Vocab, code: str) -> float:
        split = encode_batch([robust_text_tokens(code)], vocab, self.max_len)
        return float(model.predict_proba(split)[0, 1])

    def generate(self, code: str) -> GeneratedDirective:
        """Generate a directive for the first loop in ``code`` (or None).

        Dirty C never raises: lexing recovers malformed regions as error
        tokens and parsing recovers into a partial AST, so a snippet the
        strict frontend rejects still gets a verdict (and its analysis
        facts where the partial AST has a loop)."""
        notes: List[str] = []
        p_dir = self._proba(self.directive_model, self.vocab, code)

        # variable-level facts from the analyzer (always computed: they are
        # reported even when no directive is emitted)
        ast, _ = parse_resilient(code)
        loops = [n for n in walk(ast) if isinstance(n, For)]
        funcdefs = {n.name: n for n in walk(ast) if isinstance(n, FuncDef)}
        private_vars: Tuple[str, ...] = ()
        reduction_specs: Tuple[Tuple[str, str], ...] = ()
        if loops:
            analysis = analyze_loop(loops[0], funcdefs, self._policy)
            private_vars = tuple(dict.fromkeys(analysis.private))
            reduction_specs = tuple(analysis.reductions)
            if not analysis.parallelizable:
                notes.append("model and dependence analysis disagree: "
                             + "; ".join(analysis.reasons))

        if p_dir <= self.threshold:
            notes.insert(0, "model judges the loop not worth a directive")
            return GeneratedDirective(None, p_dir, None, None,
                                      private_vars, reduction_specs, notes)

        p_priv = p_red = None
        clauses: List[Clause] = []
        if self.private_model is not None:
            p_priv = self._proba(self.private_model, self.private_vocab, code)
            if p_priv > self.threshold and private_vars:
                clauses.append(Clause("private", private_vars))
            elif p_priv > self.threshold:
                notes.append("private predicted but no candidate variables found")
        if self.reduction_model is not None:
            p_red = self._proba(self.reduction_model, self.reduction_vocab, code)
            if p_red > self.threshold and reduction_specs:
                for op, var in reduction_specs:
                    clauses.append(Clause("reduction", (f"{op}:{var}",)))
            elif p_red > self.threshold:
                notes.append("reduction predicted but no accumulator identified")

        directive = OmpDirective("parallel for", clauses).unparse()
        return GeneratedDirective(directive, p_dir, p_priv, p_red,
                                  private_vars, reduction_specs, notes)
