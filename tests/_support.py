"""Shared test helpers: randomized mixed-type datasets, a full-sort
neighbour reference, damaged wire messages, and cluster workers, as
processes or in-process threads."""

from __future__ import annotations

import queue
import re
import socket
import subprocess
import sys
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from direlieff import engine
from direlieff.cluster import serve_worker
from direlieff.model import FeatureKind, FeatureMeta, InstanceBlock, Schema, feature_diffs


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
    one element count set to another value, drawn from hypothesis `data`."""
    bad = [buf[:cut] for cut in (range(len(buf)) if cuts is None else cuts)]
    bad.append(buf + bytes([data.draw(st.integers(0, 255), label="extra byte")]))
    fields, at = [], 0
    for dtype in dtypes:
        fields.append(at)
        at += 8 + int.from_bytes(buf[at : at + 8], "big") * np.dtype(dtype).itemsize
    if fields:
        at = data.draw(st.sampled_from(fields), label="count field")
        old = int.from_bytes(buf[at : at + 8], "big")
        new = data.draw(st.integers(0, 2**64 - 1).filter(lambda v: v != old), label="count")
        bad.append(buf[:at] + new.to_bytes(8, "big") + buf[at + 8 :])
    return bad


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
    """While active, `fold_runs` starts as many threads as it is asked for,
    however few cores the host has, so that a test of the thread count runs
    every count it draws."""
    return mock.patch.object(engine, "available_cores", return_value=1 << 10)


@contextmanager
def worker_thread(threads: int = 1):
    """An in-process `serve_worker` session on an ephemeral port; yields its
    (host, port) and, on exit, waits for the session to end.  A session no
    driver joined is ended by connecting and hanging up."""
    bound: queue.Queue = queue.Queue()
    thread = threading.Thread(
        target=serve_worker,
        args=("127.0.0.1", 0, threads),
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
            try:
                socket.create_connection(addr, timeout=10).close()
            except OSError:
                pass
            thread.join(timeout=30)
        assert not thread.is_alive(), "worker session did not end"
