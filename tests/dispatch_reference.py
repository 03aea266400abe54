"""The literal request-by-request greedy loop of Section 2.5.

``Dispatcher.dispatch_batch`` and ``Dispatcher.dispatch`` answer a burst
through one pooled :class:`~repro.core.batch.BatchContext`; these loops are
what they are property-tested against.  Each request gets its own
per-request context (``Matcher.make_context``) and nothing here touches the
batch module, so a pooled context that answered differently from a fresh one
shows up as a difference instead of being compared with itself.
:func:`match_sequential` is also what an older build's ``book_batch``
journal record must replay as (``tests/service/test_old_book_batch.py``).
"""

from __future__ import annotations

from typing import Iterable, List

from repro.core.dispatcher import DispatchOutcome, Dispatcher, OptionPolicy
from repro.model.options import RideOption
from repro.model.request import Request


def dispatch_sequential(
    dispatcher: Dispatcher,
    requests: Iterable[Request],
    policy: OptionPolicy = OptionPolicy.CHEAPEST,
) -> List[DispatchOutcome]:
    """normalise -> make_context -> match -> choose -> commit, one request at a time.

    Every outcome goes to ``dispatcher.outcome_listener`` as it lands, so a
    request that raises leaves its predecessors' outcomes observable.
    ``match_seconds`` is 0.0: the loop measures nothing.
    """
    matcher = dispatcher.matcher
    outcomes: List[DispatchOutcome] = []
    for request in requests:
        request = dispatcher.normalise(request)
        context = matcher.make_context(request)
        options = matcher.match(request, context)
        chosen = policy.choose(options) if options else None
        if chosen is not None:
            dispatcher.commit(request, chosen, context=context)
        outcome = DispatchOutcome(
            request=request,
            options=tuple(options),
            chosen=chosen,
            match_seconds=0.0,
            direct_distance=context.direct,
        )
        outcomes.append(outcome)
        if dispatcher.outcome_listener is not None:
            dispatcher.outcome_listener(outcome)
    return outcomes


def match_sequential(
    dispatcher: Dispatcher, requests: Iterable[Request]
) -> List[List[RideOption]]:
    """normalise -> make_context -> match, one request at a time, no commit."""
    matcher = dispatcher.matcher
    answers: List[List[RideOption]] = []
    for request in requests:
        request = dispatcher.normalise(request)
        answers.append(matcher.match(request, matcher.make_context(request)))
    return answers
