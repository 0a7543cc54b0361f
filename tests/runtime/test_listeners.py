"""Listener pipeline dispatch and ordering."""

from repro.runtime.events import AccessEvent, AccessKind, Site
from repro.runtime.heap import Heap
from repro.runtime.listeners import ExecutionListener, ListenerPipeline


class Probe(ExecutionListener):
    def __init__(self, name, log):
        self.name = name
        self.log = log

    def on_thread_start(self, thread):
        self.log.append((self.name, "start", thread))

    def on_thread_end(self, thread):
        self.log.append((self.name, "end", thread))

    def on_method_enter(self, thread, method, depth):
        self.log.append((self.name, "enter", method, depth))

    def on_method_exit(self, thread, method, depth):
        self.log.append((self.name, "exit", method, depth))

    def on_access(self, event):
        self.log.append((self.name, "access", event.fieldname))

    def on_execution_end(self):
        self.log.append((self.name, "finish"))


def make_event():
    return AccessEvent(
        seq=1, thread_name="T", obj=Heap().alloc("o"), fieldname="f",
        kind=AccessKind.READ, is_sync=False, is_array=False, site=Site("m"),
    )


def test_dispatch_order_matches_registration():
    """Barrier order = registration order (Octet before ICD's logger)."""
    log = []
    pipeline = ListenerPipeline([Probe("a", log), Probe("b", log)])
    pipeline.on_access(make_event())
    assert [entry[0] for entry in log] == ["a", "b"]


def test_all_event_kinds_forwarded():
    log = []
    pipeline = ListenerPipeline([Probe("p", log)])
    pipeline.on_thread_start("T")
    pipeline.on_method_enter("T", "m", 1)
    pipeline.on_access(make_event())
    pipeline.on_method_exit("T", "m", 1)
    pipeline.on_thread_end("T")
    pipeline.on_execution_end()
    kinds = [entry[1] for entry in log]
    assert kinds == ["start", "enter", "access", "exit", "end", "finish"]


def test_add_after_construction():
    log = []
    pipeline = ListenerPipeline()
    pipeline.add(Probe("late", log))
    pipeline.on_thread_start("T")
    assert log == [("late", "start", "T")]


def test_base_listener_is_a_no_op():
    listener = ExecutionListener()
    listener.on_thread_start("T")
    listener.on_access(make_event())
    listener.on_execution_end()  # nothing raised


def test_on_access_fast_path_rebinds_as_listeners_are_added():
    """The pre-bound barrier: no-op with zero listeners, the listener's
    own bound method with one, fan-out with two or more — and add()
    must upgrade the binding each time."""
    log = []
    pipeline = ListenerPipeline()
    pipeline.on_access(make_event())  # no listeners: dropped, no error
    assert log == []

    first = Probe("a", log)
    pipeline.add(first)
    assert pipeline.on_access == first.on_access  # direct binding
    pipeline.on_access(make_event())
    assert [entry[0] for entry in log] == ["a"]

    log.clear()
    pipeline.add(Probe("b", log))
    pipeline.on_access(make_event())
    assert [entry[0] for entry in log] == ["a", "b"]


def test_single_listener_dispatches_on_access_directly():
    """With one listener the pipeline's barrier *is* that listener's
    bound on_access — no loop, no wrapper."""
    log = []
    probe = Probe("only", log)
    pipeline = ListenerPipeline([probe])
    assert pipeline.on_access == probe.on_access
    assert "on_access" in vars(pipeline)
    pipeline.on_access(make_event())
    assert log == [("only", "access", "f")]


def test_fan_out_keeps_listener_order():
    """Two or more listeners use the class-level fan-out, which visits
    them in registration order — including listeners added later."""
    log = []
    pipeline = ListenerPipeline([Probe("a", log)])
    pipeline.add(Probe("b", log))
    pipeline.add(Probe("c", log))
    assert "on_access" not in vars(pipeline)
    pipeline.on_access(make_event())
    assert [entry[0] for entry in log] == ["a", "b", "c"]


def test_single_listener_fast_path_preserves_event_identity():
    seen = []

    class Identity(ExecutionListener):
        def on_access(self, event):
            seen.append(event)

    pipeline = ListenerPipeline([Identity()])
    event = make_event()
    pipeline.on_access(event)
    assert seen == [event]
