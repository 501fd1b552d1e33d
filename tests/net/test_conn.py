"""Connection state-machine tests against a controllable fake backend."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.imdb import ClientOp
from repro.imdb.resp import decode, encode_command
from repro.net import BackpressurePolicy, NetConfig, NetFrontend
from repro.sim import Environment


class FakeBackend:
    """Fixed service time per op; remembers what it executed."""

    def __init__(self, env, service=50e-6):
        self.env = env
        self.service = service
        self.executed: list[ClientOp] = []

    def execute(self, op):
        yield self.env.timeout(self.service)
        self.executed.append(op)
        if op.op == "GET":
            return b"value-of-" + op.key
        return True


def _connect(env, fe):
    box = {}

    def go():
        box["conn"] = yield from fe.listener.connect()

    env.run(until=env.process(go(), name="connect"))
    return box["conn"]


def _run_groups(env, conn, groups):
    def client():
        for g in groups:
            yield from conn.send(g, env.now)
        yield from conn.drain()
        yield from conn.close()

    env.run(until=env.process(client(), name="client"))
    env.run(until=env.now + 0.05)


def test_commands_flow_end_to_end():
    env = Environment()
    be = FakeBackend(env)
    fe = NetFrontend(env, be, NetConfig(capture_replies=True))
    conn = _connect(env, fe)
    groups = [(ClientOp("SET", b"k1", b"v1"),),
              (ClientOp("GET", b"k1"),),
              (ClientOp("DEL", b"k1"),)]
    _run_groups(env, conn, groups)
    assert [op.op for op in be.executed] == ["SET", "GET", "DEL"]
    assert fe.completed == 3
    assert decode(conn.replies[0]) == "OK"
    assert decode(conn.replies[1]) == b"value-of-k1"
    assert decode(conn.replies[2]) == 1


def test_pipeline_window_caps_outstanding():
    env = Environment()
    be = FakeBackend(env, service=1e-3)
    fe = NetFrontend(env, be, NetConfig(pipeline_depth=2, conn_queue=64,
                                        max_inflight=64))
    conn = _connect(env, fe)
    seen = []

    def client():
        for i in range(6):
            yield from conn.send((ClientOp("GET", b"%d" % i),), env.now)
            seen.append(conn._outstanding)
        yield from conn.drain()
        yield from conn.close()

    env.run(until=env.process(client(), name="client"))
    assert max(seen) <= 2
    assert fe.completed == 6


def test_fragmented_frames_reassemble():
    """A 4 KiB SET crosses many 512 B fragments; exactly one command
    must come out the other side."""
    env = Environment()
    be = FakeBackend(env)
    fe = NetFrontend(env, be, NetConfig(fragment_bytes=512))
    conn = _connect(env, fe)
    _run_groups(env, conn, [(ClientOp("SET", b"big", b"x" * 4096),)])
    assert len(be.executed) == 1
    assert be.executed[0].value == b"x" * 4096


def test_slow_client_pays_bandwidth():
    def run(slow_every):
        env = Environment()
        be = FakeBackend(env, service=1e-6)
        fe = NetFrontend(env, be, NetConfig(slow_every=slow_every,
                                            slow_factor=0.01))
        conn = _connect(env, fe)
        assert conn.slow == (slow_every == 1)
        t0 = env.now
        _run_groups(env, conn, [(ClientOp("SET", b"k", b"v" * 2048),)])
        done = [c for c in fe.completions]
        return done[0][1] - t0

    assert run(1) > 50 * run(0)


def test_protocol_error_drops_connection():
    env = Environment()
    be = FakeBackend(env)
    fe = NetFrontend(env, be, NetConfig())
    conn = _connect(env, fe)

    def client():
        yield conn.inbox.put(b":not-an-int\r\n")

    env.run(until=env.process(client(), name="client"))
    env.run(until=env.now + 0.01)
    assert conn.dropped and conn.closed
    assert fe.dropped_conns == 1


def test_unsupported_command_drops_connection():
    env = Environment()
    be = FakeBackend(env)
    fe = NetFrontend(env, be, NetConfig())
    conn = _connect(env, fe)

    def client():
        yield conn.inbox.put(b"*1\r\n$8\r\nFLUSHALL\r\n")

    env.run(until=env.process(client(), name="client"))
    env.run(until=env.now + 0.01)
    assert conn.dropped
    assert fe.dropped_conns == 1


def test_send_on_closed_connection_counts_unsent():
    env = Environment()
    be = FakeBackend(env)
    fe = NetFrontend(env, be, NetConfig())
    conn = _connect(env, fe)

    def client():
        yield from conn.close()
        yield env.timeout(1e-3)
        sent = yield from conn.send((ClientOp("GET", b"k"),), env.now)
        assert sent == 0

    env.run(until=env.process(client(), name="client"))
    assert fe.unsent == 1
    assert fe.completed == 0


def test_graceful_close_drains_queued_commands():
    """close() after sends: everything already queued still executes."""
    env = Environment()
    be = FakeBackend(env, service=200e-6)
    fe = NetFrontend(env, be, NetConfig(pipeline_depth=8))
    conn = _connect(env, fe)
    groups = [(ClientOp("SET", b"%d" % i, b"v"),) for i in range(5)]
    _run_groups(env, conn, groups)
    assert fe.completed == 5
    assert not conn.dropped


def test_config_validation():
    with pytest.raises(ValueError):
        NetConfig(conn_queue=0)
    with pytest.raises(ValueError):
        NetConfig(pipeline_depth=0)
    with pytest.raises(ValueError):
        NetConfig(slow_factor=0.0)
    with pytest.raises(ValueError):
        NetConfig(max_inflight=0)


def test_net_spans_cover_queue_residency():
    from repro.obs.trace import RequestTracer

    env = Environment()
    be = FakeBackend(env, service=100e-6)
    tracer = RequestTracer(env, sample_every=1)
    fe = NetFrontend(env, be, NetConfig(pipeline_depth=8), rtrace=tracer)
    conn = _connect(env, fe)
    groups = [(ClientOp("SET", b"%d" % i, b"v"),) for i in range(4)]
    _run_groups(env, conn, groups)
    kept = list(tracer.kept.values())
    assert kept
    roots = [ctx.root for ctx in kept]
    assert all(r is not None and r.layer == "net" for r in roots)
    # later requests waited behind the first: queue spans must exist
    names = {s.name for ctx in kept for s in ctx.spans}
    assert "conn_queue" in names or "client_backlog" in names
    assert "reply_write" in names


# -- wire timing -------------------------------------------------------------

def _boundaries(t0, nbytes, frag, bw):
    """Fragment arrival instants of one frame, summed chunk by chunk
    from the send instant (the wire model's own float arithmetic)."""
    out = []
    t = t0
    for i in range(0, nbytes, frag):
        t = t + min(frag, nbytes - i) / bw
        out.append(t)
    return out


class StampingBackend(FakeBackend):
    """Records the instant each command reaches the backend."""

    def __init__(self, env, service=0.0):
        super().__init__(env, service)
        self.started: list[float] = []

    def execute(self, op):
        self.started.append(self.env.now)
        return (yield from super().execute(op))


@settings(max_examples=60, deadline=None)
@given(value_size=st.integers(0, 3000),
       fragment_bytes=st.integers(7, 1024),
       slow=st.booleans(),
       slow_factor=st.sampled_from([0.5, 0.05, 0.013]))
def test_frame_parsed_at_last_fragment_instant(value_size, fragment_bytes,
                                               slow, slow_factor):
    """A frame is parsed exactly when its last fragment lands, and the
    sender returns at that same instant."""
    env = Environment()
    be = StampingBackend(env)
    cfg = NetConfig(fragment_bytes=fragment_bytes, parse_cpu=0.0,
                    slow_every=1 if slow else 0, slow_factor=slow_factor)
    fe = NetFrontend(env, be, cfg)
    conn = _connect(env, fe)
    op = ClientOp("SET", b"key", b"v" * value_size)
    bw = cfg.client_bandwidth * slow_factor if slow else cfg.client_bandwidth
    box = {}

    def client():
        box["t0"] = env.now
        yield from conn.send((op,), env.now)
        box["t1"] = env.now

    env.run(until=env.process(client(), name="client"))
    env.run(until=env.now + 0.01)
    want = _boundaries(box["t0"], len(encode_command(op)), fragment_bytes,
                       bw)[-1]
    assert box["t1"] == want
    assert be.started == [want]


def test_drop_mid_frame_noticed_at_next_fragment_boundary():
    """DROP closes the connection while a slow, backlogged client has a
    frame half on the wire: the client must notice at the next fragment
    boundary, not when the frame would have finished, and reconnect
    from there.  Instants pinned from the per-fragment wire model."""
    env = Environment()
    be = FakeBackend(env, service=400e-6)
    cfg = NetConfig(policy=BackpressurePolicy.DROP, conn_queue=1,
                    pipeline_depth=4, fragment_bytes=64, slow_every=1,
                    slow_factor=0.05)
    fe = NetFrontend(env, be, cfg)
    ops = [ClientOp("SET", b"k%d" % i, b"v" * 300) for i in range(8)]
    nbytes = len(encode_command(ops[0]))
    bw = cfg.client_bandwidth * cfg.slow_factor
    log = []

    def session():
        conn = None
        for i, op in enumerate(ops):
            t_int = i * 10e-6  # far ahead of what the slow client can send
            if env.now < t_int:
                yield env.timeout(t_int - env.now)
            while conn is None or conn.closed:
                conn = yield from fe.listener.connect()
                log.append(("connect", conn.conn_id, env.now))
            t_send = env.now
            sent = yield from conn.send((op,), t_int)
            log.append(("send", i, sent, t_send, env.now))
        yield from conn.drain()
        yield from conn.close()

    env.run(until=env.process(session(), name="session"))
    env.run(until=env.now + 0.01)

    cut = [e for e in log if e[0] == "send" and e[2] == 0]
    assert len(cut) == 2
    for _, _, _, t_send, t_back in cut:
        edges = _boundaries(t_send, nbytes, cfg.fragment_bytes, bw)
        assert t_back in edges[:-1]  # a fragment boundary, mid-frame
    assert log == [
        ("connect", 1, 2e-06),
        ("send", 0, 1, 2e-06, 6.780000000000001e-05),
        ("send", 1, 1, 6.780000000000001e-05, 0.0001336),
        ("send", 2, 1, 0.0001336, 0.00019939999999999991),
        ("send", 3, 0, 0.00019939999999999991, 0.0002121999999999999),
        ("connect", 2, 0.0002141999999999999),
        ("send", 4, 1, 0.0002141999999999999, 0.0002799999999999998),
        ("send", 5, 1, 0.0002799999999999998, 0.00034579999999999973),
        ("send", 6, 1, 0.00034579999999999973, 0.00041159999999999965),
        ("send", 7, 0, 0.00041159999999999965, 0.00042439999999999964),
    ]
    assert fe.stats() == {
        "issued": 8.0, "completed": 2.0, "shed": 0.0,
        "dropped_conns": 2.0, "dropped_cmds": 6.0, "unsent": 0.0,
        "refused": 0.0, "accepted": 2.0, "peak_inflight": 3.0,
        "admission_rejections": 0.0, "max_conn_queue": 1.0,
    }
    assert fe.completions == [(0.0, 0.00046830000000000005, "SET"),
                              (4e-05, 0.0006804999999999999, "SET")]
