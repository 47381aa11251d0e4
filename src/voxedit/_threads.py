"""The one module that starts threads: every overlap of independent work
in the CLI, the pipeline and ``flowedit_run`` goes through it."""
from __future__ import annotations

import contextlib
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor


def _run_in_turn(thunks, catch) -> list:
    """Finished futures of ``thunks`` run in turn up to the first that raises ``catch``, then ``None``."""
    done = [None] * len(thunks)
    for i, thunk in enumerate(thunks):
        done[i] = Future()
        try:
            done[i].set_result(thunk())
        except catch as exc:
            done[i].set_exception(exc)
            break
    return done


@contextlib.contextmanager
def helper():
    """Yield ``split(*thunks)``, which runs the odd positions in order on
    the block's one helper thread and the even ones on the calling thread.
    Each side stops at its first failure.  ``split`` returns one finished
    future per thunk in argument order, ``None`` for a thunk after its
    side's failure, so reading them in order raises what running them in
    turn would.  The helper is joined when the block exits."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        def split_on_pool(*thunks) -> list:
            # the helper keeps even an interrupt, which only this thread can
            # raise; one raised here propagates once the helper's side is done
            theirs = pool.submit(_run_in_turn, thunks[1::2], BaseException)
            done = [None] * len(thunks)
            try:
                done[::2] = _run_in_turn(thunks[::2], Exception)
            finally:
                done[1::2] = theirs.result()
            return done

        yield split_on_pool


@contextlib.contextmanager
def ahead(thunks, workers: int):
    """Yield the results of ``thunks`` in order, taken lazily and run on
    ``workers`` threads that the block owns and joins (with none, each on
    the calling thread when its result is asked for).  While the caller
    holds result j, thunks up to j + 2 * workers - 1 may run.  A thunk's
    exception is raised at its position.  However the block exits, the
    thunks not yet started are cancelled and the running ones joined."""
    if workers == 0:
        yield (thunk() for thunk in thunks)
        return
    pool, pending = ThreadPoolExecutor(max_workers=workers), deque()

    def results():
        for thunk in thunks:
            pending.append(pool.submit(thunk))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    try:
        yield results()
    finally:
        pool.shutdown(cancel_futures=True)
