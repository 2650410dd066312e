"""One child process per task attempt.

:meth:`LocalBackend.submit` starts a child for one attempt of one task,
under the caller's environment as it is at that moment, and returns a
:class:`~concurrent.futures.Future`.  :meth:`LocalBackend.wait` settles
the futures whose child reported (its results, or the error its attempt
raised) or died before reporting (:class:`WorkerLost`), and reaps those
children.  Attempts share no process, so a raise, a death or a missed
deadline belongs to exactly one task, and :meth:`LocalBackend.reset`
kills only the children it is asked to.

``run_jobs`` reaps every child before it returns or raises, so no
process outlives its batch and there is nothing to shut down.
"""

from __future__ import annotations

import multiprocessing
import traceback
from concurrent.futures import Future
from multiprocessing.connection import Connection, wait
from typing import Dict, Iterable, List, NamedTuple, Optional


class WorkerLost(RuntimeError):
    """A child died before reporting: killed, crashed or out of memory."""


class RemoteTraceback(Exception):
    """Where an attempt raised inside its child; chained as the
    ``__cause__`` of the error the parent sees."""

    def __str__(self) -> str:
        return self.args[0]


class _Child(NamedTuple):
    process: multiprocessing.Process
    reader: Connection


def _attempt(writer: Connection, task, fault: Optional[str]) -> None:
    """Child entry point: run one attempt and report its outcome.

    The report is ``(None, results)`` or ``(error, traceback text)``; a
    child that dies (or is interrupted or exits) first reports nothing,
    and the parent reads EOF.
    """
    # Looked up when the child starts, not bound at import: what runs is
    # whatever the executor module holds under that name at submission.
    from repro.parallel import executor

    try:
        report = (None, executor._simulate_task(task, fault, True))
    except Exception as error:
        report = (error, traceback.format_exc())
    writer.send(report)


class LocalBackend:
    """Run one batch's task attempts, each in a child process of its own."""

    def __init__(self, max_workers: int) -> None:
        self._max_workers = max(1, int(max_workers))
        self._children: Dict[Future, _Child] = {}

    def submit(self, task, fault: Optional[str]) -> Future:
        """Start a child for one task attempt; ``fault`` is its chaos
        assignment.  Raises ``OSError`` when no child can be started."""
        reader, writer = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_attempt, args=(writer, task, fault), daemon=True)
        try:
            process.start()
        except BaseException:
            reader.close()
            raise
        finally:
            # The child holds the only write end now, so its death
            # reads as EOF here.
            writer.close()
        future: Future = Future()
        self._children[future] = _Child(process, reader)
        return future

    def wait(self, timeout: Optional[float]) -> List[Future]:
        """Wait up to ``timeout`` seconds (``None``: until one settles)
        for children to report or die; settle their futures, reap the
        children and return the settled futures."""
        readers = {child.reader: future
                   for future, child in self._children.items()}
        settled = []
        for reader in wait(list(readers), timeout):
            future = readers[reader]
            try:
                report = reader.recv()
            except EOFError:
                report = None
            except Exception as error:  # a report that will not unpickle
                report = (error, "")
            code = self._reap(future)
            if report is None:
                future.set_exception(WorkerLost(
                    f"worker died before reporting (exit code {code})"))
            elif report[0] is None:
                future.set_result(report[1])
            else:
                error, where = report
                if where:
                    error.__cause__ = RemoteTraceback(where)
                future.set_exception(error)
            settled.append(future)
        return settled

    def reset(self, futures: Optional[Iterable[Future]] = None) -> None:
        """Kill and reap the children of ``futures`` (all when ``None``);
        each settles as :class:`WorkerLost`.

        Only failure paths call this: a missed deadline, or an error or
        an interrupt that leaves children mid-attempt.
        """
        if futures is None:
            futures = list(self._children)
        doomed = [future for future in futures if future in self._children]
        for future in doomed:
            self._children[future].process.kill()
        for future in doomed:
            code = self._reap(future)
            future.set_exception(WorkerLost(
                f"worker killed (exit code {code})"))

    def _reap(self, future: Future) -> Optional[int]:
        """Join the child of ``future``, release it, return its exit code."""
        child = self._children.pop(future)
        child.reader.close()
        child.process.join()
        code = child.process.exitcode
        child.process.close()
        return code
