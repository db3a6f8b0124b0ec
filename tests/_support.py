"""Shared test helpers: randomized mixed-type datasets, a full-sort
neighbour reference, damaged wire messages, frames read off a socket, and
cluster workers, as subprocesses, forked processes or in-process threads."""

from __future__ import annotations

import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from direlieff import engine
from direlieff.cluster import read_frame, serve_worker
from direlieff.model import FeatureKind, FeatureMeta, InstanceBlock, Schema, feature_diffs
from direlieff.wire import unpack


def numeric_schema(a: int, c: int = 2) -> Schema:
    feats = tuple(
        FeatureMeta(name=f"f{j}", kind=FeatureKind.NUMERIC, index=j) for j in range(a)
    )
    return Schema(features=feats, class_labels=tuple(f"c{i}" for i in range(c)))


def random_mixed_block(rng: np.random.Generator, n: int, a_num: int, a_nom: int, c: int):
    """A dataset with interleaved numeric/nominal columns and assorted edge
    cases: constant columns, duplicated rows, occasionally absent classes."""
    a = a_num + a_nom
    kinds = np.array([FeatureKind.NUMERIC] * a_num + [FeatureKind.NOMINAL] * a_nom)
    rng.shuffle(kinds)
    values = np.empty((n, a))
    for j, kind in enumerate(kinds):
        if kind is FeatureKind.NUMERIC:
            style = rng.integers(0, 4)
            if style == 0:
                values[:, j] = rng.normal(0.0, rng.uniform(0.1, 50.0), size=n)
            elif style == 1:
                values[:, j] = rng.uniform(-5.0, 5.0, size=n)
            elif style == 2:
                values[:, j] = rng.integers(-3, 4, size=n).astype(float)
            else:
                values[:, j] = float(rng.normal())  # constant: degenerate range
        else:
            levels = int(rng.integers(2, 6))
            values[:, j] = rng.integers(0, levels, size=n).astype(float)

    present = c if rng.random() > 0.2 else int(rng.integers(1, c + 1))
    labels = rng.integers(0, present, size=n).astype(np.int32)

    if n >= 4 and rng.random() < 0.3:
        # duplicated rows: distance-0 candidates with distinct ids
        dup = rng.integers(0, n, size=max(1, n // 10))
        values[dup] = values[dup[0]]
        labels[dup] = labels[dup[0]]

    feats = tuple(
        FeatureMeta(name=f"f{j}", kind=kinds[j], index=j) for j in range(a)
    )
    schema = Schema(features=feats, class_labels=tuple(f"c{ci}" for ci in range(c)))
    block = InstanceBlock(np.arange(n, dtype=np.int64), labels, values)
    return schema, block


def grid_entries(nn):
    """Per (class, sample): the cell's filled slots as (distance, id, class,
    row bytes), in slot order."""
    return [
        [
            [
                (float(nn.dist[c, i, j]), int(nn.ids[c, i, j]), c, nn.values[c, i, j].tobytes())
                for j in range(nn.count[c, i])
            ]
            for i in range(nn.num_samples)
        ]
        for c in range(nn.num_classes)
    ]


def brute_force_entries(block, sample_ids, sample_values, mask, ranges, cfg, num_classes, k):
    """Per (class, sample): the k smallest (distance, id) rows by full sort."""
    out = []
    for label in range(num_classes):
        row = []
        for sid, sval in zip(sample_ids, sample_values):
            dists = np.sum(feature_diffs(block.values, sval, mask, ranges, cfg), axis=-1)
            sel = np.flatnonzero((block.labels == label) & (block.ids != sid))
            best = sel[np.lexsort((block.ids[sel], dists[sel]))[:k]]
            row.append(
                [(float(dists[j]), int(block.ids[j]), label, block.values[j].tobytes()) for j in best]
            )
        out.append(row)
    return out


def wire_damage(buf: bytes, dtypes, data, cuts=None) -> list[bytes]:
    """Damaged copies of a `wire` message of the given dtypes: its
    truncations at `cuts` (default: every one), a one-byte extension, and
    one element count set to another value, drawn from hypothesis `data`.
    The new count never frames the bytes as another message of the same
    dtypes, which no decoder could tell from one sent as it is; small
    integer payloads allow it (counts 1 and 1 over the values 2 and 6, with
    the first count set to 0, read as counts 0 and 2 over 1 and 6)."""
    bad = [buf[:cut] for cut in (range(len(buf)) if cuts is None else cuts)]
    bad.append(buf + bytes([data.draw(st.integers(0, 255), label="extra byte")]))
    fields, at = [], 0
    for dtype in dtypes:
        fields.append(at)
        at += 8 + int.from_bytes(buf[at : at + 8], "big") * np.dtype(dtype).itemsize
    if fields:
        at = data.draw(st.sampled_from(fields), label="count field")

        def recount(v):
            return buf[:at] + v.to_bytes(8, "big") + buf[at + 8 :]

        new = data.draw(
            st.integers(0, 2**64 - 1).filter(lambda v: not _frames(recount(v), dtypes)),
            label="count",
        )
        bad.append(recount(new))
    return bad


def _frames(buf: bytes, dtypes) -> bool:
    """Whether `buf` parses as one array of each dtype, with no bytes left."""
    try:
        unpack(buf, *dtypes)
    except ValueError:
        return False
    return True


def read_frames(data: bytes, count: int = 1, **limits):
    """`count` frames that `read_frame` reads from `data`, sent over a
    socket pair and then closed, and the bytes left after them."""
    sender, receiver = socket.socketpair()
    with sender, receiver:
        receiver.settimeout(10)
        sender.sendall(data)
        sender.close()
        frames = [read_frame(receiver, **limits) for _ in range(count)]
        rest = b""
        while chunk := receiver.recv(1 << 16):
            rest += chunk
    return frames, rest


def spawn_worker(threads: int = 1):
    """Start a worker subprocess on an ephemeral port; returns (proc, addr)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "direlieff.cli", "worker", "--port", "0",
         "--threads", str(threads)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    match = re.match(r"listening (.+):(\d+)", line)
    if not match:
        proc.kill()
        raise RuntimeError(f"worker did not announce a port: {line!r}")
    return proc, (match.group(1), int(match.group(2)))


def reap(procs, timeout: float = 15.0) -> list[int]:
    """Each process's exit code, killed after `timeout`; its pipes are closed."""
    codes = []
    for proc in procs:
        try:
            codes.append(proc.wait(timeout=timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            codes.append(proc.wait())
        proc.stdout.close()
        proc.stderr.close()
    return codes


def uncapped_threads():
    """While active, `fold_runs` cuts as many runs as it is asked for,
    however few cores the host has, so that a test of the run count runs
    every count it draws."""
    return mock.patch.object(engine, "available_cores", return_value=1 << 10)


@contextmanager
def worker_thread():
    """An in-process `serve_worker` session of one thread on an ephemeral
    port; yields its (host, port) and, on exit, waits for the session to
    end.  A session no driver joined is ended by connecting and hanging
    up.  It folds in this process, so it must fork no runs: a fork from a
    process with a second live thread may deadlock (`worker_process`)."""
    bound: queue.Queue = queue.Queue()
    thread = threading.Thread(
        target=serve_worker,
        args=("127.0.0.1", 0, 1),
        kwargs={"on_listen": lambda host, port: bound.put((host, port))},
        daemon=True,
    )
    thread.start()
    addr = bound.get(timeout=10)
    try:
        yield addr
    finally:
        thread.join(timeout=1)
        if thread.is_alive():
            _hang_up(addr)
            thread.join(timeout=30)
        assert not thread.is_alive(), "worker session did not end"


@contextmanager
def worker_process(threads: int):
    """A `serve_worker` session in a child forked from this process, which
    inherits its patches (`uncapped_threads`); yields its (host, port) and,
    on exit, reaps it, after ending a session no driver joined as
    `worker_thread` does."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            code = serve_worker("127.0.0.1", 0, threads, on_listen=lambda host, port: os.write(w, f"{port}\n".encode()))
        finally:
            os._exit(code)
    os.close(w)
    try:
        with open(r, "rb") as announced:
            addr = ("127.0.0.1", int(announced.readline()))
        yield addr
        _hang_up(addr)
        deadline = time.monotonic() + 30
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            assert time.monotonic() < deadline, "worker session did not end"
            time.sleep(0.01)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise


def _hang_up(addr) -> None:
    """Connect to `addr` and hang up: a worker that no driver joined ends."""
    try:
        socket.create_connection(addr, timeout=10).close()
    except OSError:
        pass


def assert_no_children() -> None:
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
