import json
import math
import os
import random
import re

import pytest

from threadcurve import synth
from threadcurve.corpus import (CorpusError, embedded_users, growth_target,
                                parse_corpus, read_discussions,
                                serialize_corpus, windowize)
from conftest import chain_comments, make_discussion_json, write_corpus

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def test_parse_sorts_and_depths(tiny_corpus):
    discussions, manifest, _ = tiny_corpus
    d = discussions[0]
    assert [c.id for c in d.comments] == ["t1_c0", "t1_c1", "t1_c2"]
    assert [c.depth for c in d.comments] == [1, 2, 3]
    assert manifest.discussions == 2
    assert manifest.comments == 5


def test_deep_reply_chain_listed_newest_first(tmp_path):
    comments = chain_comments("deep", ["bob", "carol"] * 1500)
    path = write_corpus(tmp_path / "deep.jsonl", [
        make_discussion_json("deep", "alice", 1000, comments[::-1])])
    discussions, _ = parse_corpus(path)
    assert [c.depth for c in discussions[0].comments] == list(range(1, 3001))


def test_reply_cycle_is_named(tmp_path):
    comments = chain_comments("cyc", ["bob", "carol", "dave"])
    comments[0]["parent_id"] = comments[2]["id"]  # c0 -> c2 -> c1 -> c0
    path = write_corpus(tmp_path / "cycle.jsonl", [
        make_discussion_json("cyc", "alice", 1000, comments)])
    with pytest.raises(CorpusError, match="reply cycle through comment "
                                          "'cyc_c[012]'"):
        parse_corpus(path)


def test_duplicate_comment_id_is_named(tmp_path):
    # two siblings named c1: a reply to c1 could go to either author
    disc = make_discussion_json("dup", "alice", 1000, [
        {"id": "c1", "author": "bob", "parent_id": "dup",
         "timestamp": 1010, "body": "x."},
        {"id": "c1", "author": "carol", "parent_id": "dup",
         "timestamp": 1020, "body": "y."},
        {"id": "c2", "author": "dave", "parent_id": "c1",
         "timestamp": 1030, "body": "z."},
    ])
    path = write_corpus(tmp_path / "dup.jsonl", [disc])
    with pytest.raises(CorpusError, match="comment id 'c1' in discussion "
                                          "'dup' is used twice"):
        parse_corpus(path)
    # also when one of the two is removed by its author tag
    disc["comments"][0]["author"] = "deleted"
    path = write_corpus(tmp_path / "dup_removed.jsonl", [disc])
    with pytest.raises(CorpusError, match="'c1' in discussion 'dup' is used"):
        parse_corpus(path)


def test_comment_with_the_post_id_is_named(tmp_path):
    # it would be kept at depth 0, as its own parent
    disc = make_discussion_json("p1", "alice", 1000, [
        {"id": "p1", "author": "bob", "parent_id": "p1",
         "timestamp": 1010, "body": "x."},
    ])
    path = write_corpus(tmp_path / "same.jsonl", [disc])
    with pytest.raises(CorpusError, match="comment id 'p1' in discussion "
                                          "'p1' is the post's id"):
        parse_corpus(path)


def test_repeated_post_id_is_named(tmp_path):
    # its predictions and its balanced-split membership would be shared
    path = write_corpus(tmp_path / "twice.jsonl", [
        make_discussion_json("p1", "alice", 1000),
        make_discussion_json("p2", "bob", 2000),
        make_discussion_json("p1", "carol", 3000)])
    with pytest.raises(CorpusError, match="post id 'p1' on line 3 repeats "
                                          "line 1"):
        parse_corpus(path)


@pytest.mark.parametrize("owner,key,message", [
    ("line", "post", "the line lacks key 'post'"),
    ("post", "id", "the post lacks key 'id'"),
    ("post", "title", "post 'k1' lacks key 'title'"),
    ("post", "timestamp", "post 'k1' lacks key 'timestamp'"),
    ("c0", "id", "comment 0 of post 'k1' lacks key 'id'"),
    ("c1", "author", "comment 'k1_c1' lacks key 'author'"),
    ("c1", "parent_id", "comment 'k1_c1' lacks key 'parent_id'"),
    ("c0", "timestamp", "comment 'k1_c0' lacks key 'timestamp'"),
])
def test_missing_key_is_named(tmp_path, owner, key, message):
    disc = make_discussion_json("k1", "alice", 1000,
                                chain_comments("k1", ["bob", "carol"]))
    target = {"line": disc, "post": disc["post"], "c0": disc["comments"][0],
              "c1": disc["comments"][1]}[owner]
    del target[key]
    path = write_corpus(tmp_path / "lacks.jsonl",
                        [make_discussion_json("k0", "dave", 500), disc])
    with pytest.raises(CorpusError) as err:
        parse_corpus(path)
    assert str(err.value) == "malformed corpus line 2: " + message


def test_orphan_reattached_to_post(tmp_path):
    disc = make_discussion_json("o1", "alice", 1000, [
        {"id": "c0", "author": "bob", "parent_id": "missing",
         "timestamp": 1010, "body": "x."},
    ])
    path = write_corpus(tmp_path / "c.jsonl", [disc])
    discussions, manifest = parse_corpus(path)
    assert discussions[0].comments[0].parent_id == "o1"
    assert discussions[0].comments[0].depth == 1
    assert manifest.orphans_reattached == 1


def test_excluded_author_tags_removed(tmp_path):
    disc = make_discussion_json("e1", "alice", 1000, [
        {"id": "c0", "author": "deleted", "parent_id": "e1",
         "timestamp": 1010, "body": "x."},
        {"id": "c1", "author": "bob", "parent_id": "c0",
         "timestamp": 1020, "body": "y."},
    ])
    path = write_corpus(tmp_path / "c.jsonl", [disc])
    discussions, manifest = parse_corpus(path)
    assert [c.author for c in discussions[0].comments] == ["bob"]
    assert manifest.removed_by_tag == 1
    # the surviving child of a removed comment reattaches to the post
    assert discussions[0].comments[0].parent_id == "e1"


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = (b'{"post": {"id": "x", "author": "a", "title": "t", '
            b'"body": "", "timestamp": 1}, "comments": []}\n')
    for bad in (b"not json\n", good.replace(b'"t"', b'"caf\xff"')):
        path.write_bytes(good + bad)
        with pytest.raises(CorpusError, match="line 2"):
            parse_corpus(str(path))


def test_comment_timestamps_clamped_to_post(tmp_path):
    disc = make_discussion_json("cl", "alice", 1000, [
        {"id": "c0", "author": "bob", "parent_id": "cl",
         "timestamp": 500, "body": "early."},
    ])
    path = write_corpus(tmp_path / "c.jsonl", [disc])
    discussions, _ = parse_corpus(path)
    assert discussions[0].comments[0].timestamp == 1000


@pytest.mark.parametrize("owner", ["post", "comment"])
def test_timestamps_outside_the_exact_range_are_named(tmp_path, owner):
    """0 <= t < 2**53: every span and gap is then exact in int64 and in
    float64."""
    for t, ok in ((-1, False), (0, True), (2 ** 53 - 1, True),
                  (2 ** 53, False), (10 ** 20, False)):
        disc = make_discussion_json("k1", "alice", 0,
                                    chain_comments("k1", ["bob"], start_t=0))
        (disc["post"] if owner == "post" else disc["comments"][0])[
            "timestamp"] = t
        path = write_corpus(tmp_path / "t.jsonl", [disc])
        if ok:
            parse_corpus(path)
            continue
        with pytest.raises(CorpusError) as err:
            parse_corpus(path)
        name = "post 'k1'" if owner == "post" else "comment 'k1_c0'"
        assert str(err.value) == ("%s has timestamp %d, outside 0 <= t < "
                                  "2**53" % (name, t))


def test_embedded_users_counts_posting_and_commenting(tiny_corpus):
    discussions, _, _ = tiny_corpus
    # alice posts t1 + comments t2; bob comments t1 + posts t2;
    # carol comments in both
    assert embedded_users(discussions) == {"alice", "bob", "carol"}
    assert embedded_users(discussions, min_user_discussions=3) == set()


def test_roundtrip_serialization(tiny_corpus, tmp_path):
    discussions, _, _ = tiny_corpus
    out = tmp_path / "round.jsonl"
    serialize_corpus(discussions, str(out))
    again, _ = parse_corpus(str(out))
    assert again == discussions


def _read_back(discussions, path):
    """`discussions` as ingest writes them and later stages read them."""
    serialize_corpus(discussions, str(path))
    return read_discussions(str(path))


def test_read_discussions_equals_parse_corpus(tiny_corpus, tmp_path):
    """The reader of ingest's output gives back what `parse_corpus` gave:
    on the fixtures, on planted corpora, with a reply timestamped before
    its parent and with a deep chain listed newest first."""
    spec = synth.SynthSpec(discussions=6, posts=12)
    synth.make_temporal_corpus(spec, 0, str(tmp_path / "t.jsonl"),
                               str(tmp_path / "t.json"))
    synth.make_nontemporal_corpus(spec, 0, str(tmp_path / "n.jsonl"),
                                  str(tmp_path / "n.json"))
    early = make_discussion_json("e", "alice", 1000, [
        {"id": "c0", "author": "bob", "parent_id": "e", "timestamp": 1030,
         "body": "late parent."},
        {"id": "c1", "author": "carol", "parent_id": "c0",
         "timestamp": 1010, "body": "early reply."}])
    deep = make_discussion_json(
        "deep", "alice", 1000, chain_comments("deep", ["bob", "carol"] * 50)[::-1])
    paths = [os.path.join(DATA, "cooccur_fixture.jsonl"),
             str(tmp_path / "t.jsonl"), str(tmp_path / "n.jsonl"),
             write_corpus(tmp_path / "odd.jsonl", [early, deep])]
    cases = [tiny_corpus[0]] + [parse_corpus(p)[0] for p in paths]
    assert [c.id for c in cases[-1][0].comments] == ["c1", "c0"]
    for k, discussions in enumerate(cases):
        assert _read_back(discussions, tmp_path / ("%d.jsonl" % k)) == (
            discussions)


def test_read_discussions_names_a_line_it_cannot_read(tiny_corpus, tmp_path):
    path = tmp_path / "discussions.jsonl"
    serialize_corpus(tiny_corpus[0], str(path))
    first, second = path.read_bytes().splitlines(keepends=True)
    cycle = make_discussion_json("cyc", "alice", 1000, [
        {"id": "c0", "author": "bob", "parent_id": "c1", "timestamp": 1010,
         "body": "x."},
        {"id": "c1", "author": "carol", "parent_id": "c0",
         "timestamp": 1020, "body": "y."}])
    for bad in (b"not json\n", second.replace(b'"comments"', b'"replies"'),
                second[:-1] + b"\xff\n", json.dumps(cycle).encode() + b"\n"):
        path.write_bytes(first + bad)
        with pytest.raises(CorpusError) as err:
            read_discussions(str(path))
        assert str(err.value).startswith("%s line 2" % path)


def test_windowize_frozen_example(tmp_path):
    # 32 comments, w=15, N=4 -> sizes [15, 15, 2, 0], validity [T, T, T, F]
    disc = make_discussion_json(
        "w1", "alice", 1000,
        chain_comments("w1", ["u%d" % k for k in range(32)]))
    path = write_corpus(tmp_path / "c.jsonl", [disc])
    discussions, _ = parse_corpus(path)
    wd = windowize(discussions[0], w=15, N=4)
    assert [w.actual_count for w in wd.windows] == [15, 15, 2, 0]
    assert [w.valid for w in wd.windows] == [True, True, True, False]
    assert wd.dropped == 0
    assert [w.index for w in wd.windows] == [1, 2, 3, 4]


def test_windowize_drops_overflow(tiny_corpus):
    discussions, _, _ = tiny_corpus
    wd = windowize(discussions[0], w=1, N=2)
    assert wd.dropped == 1
    with pytest.raises(ValueError):
        windowize(discussions[0], 0, 2)


def test_growth_target_values(tiny_corpus):
    discussions, _, _ = tiny_corpus
    wd = windowize(discussions[0], w=3, N=1)
    win = wd.windows[0]  # 3 comments spanning 20 seconds
    raw, shifted = growth_target(win)
    assert raw == pytest.approx(math.log(3 / 20), abs=1e-12)
    assert shifted == pytest.approx(math.log(1 + 3 / 20), abs=1e-12)


def test_growth_target_zero_span_clamped(tmp_path):
    disc = make_discussion_json("g1", "alice", 1000, [
        {"id": "c0", "author": "b", "parent_id": "g1", "timestamp": 1005,
         "body": "x."},
        {"id": "c1", "author": "c", "parent_id": "g1", "timestamp": 1005,
         "body": "y."},
    ])
    path = write_corpus(tmp_path / "c.jsonl", [disc])
    discussions, _ = parse_corpus(path)
    win = windowize(discussions[0], w=2, N=1).windows[0]
    raw, shifted = growth_target(win)  # dt clamps to 1 second
    assert raw == pytest.approx(math.log(2))
    assert shifted == pytest.approx(math.log(3))


def test_growth_target_rejects_empty_window(tiny_corpus):
    discussions, _, _ = tiny_corpus
    wd = windowize(discussions[0], w=3, N=2)
    with pytest.raises(ValueError):
        growth_target(wd.windows[1])


FUZZ_AUTHORS = ["alice", "bob", "carol", "deleted", "DeltaBot"]
FUZZ_JUNK = [None, True, 2.5, -3, "", "12x", [], {}, ["c0"]]


def _fuzz_line(rng, k):
    """One JSON line of a random discussion: comment ids drawn from a small
    pool (so some repeat or equal the post id), parents that may be
    missing or form cycles, and now and then a dropped key, a value of the
    wrong type, a cut line or a byte that is not UTF-8."""
    did = "d%d" % k
    ids = ["c%d" % i for i in range(12)] + [did]
    comments = [{"id": rng.choice(ids[:-1] if rng.random() < 0.95 else ids),
                 "author": rng.choice(FUZZ_AUTHORS),
                 "parent_id": rng.choice(ids + ["gone"]),
                 "timestamp": 1000 + rng.randrange(-20, 80),
                 "body": "text."}
                for _ in range(rng.randrange(6))]
    raw = {"post": {"id": did, "author": rng.choice(FUZZ_AUTHORS),
                    "title": "a title", "body": "b.", "timestamp": 1000},
           "comments": comments}
    if rng.random() < 0.3:
        target = rng.choice([raw, raw["post"]] + comments)
        key = rng.choice(sorted(target))
        if rng.random() < 0.5:
            del target[key]
        else:
            target[key] = rng.choice(FUZZ_JUNK)
    line = json.dumps(raw).encode()
    if rng.random() < 0.05:
        line = line[:rng.randrange(len(line))]
    if rng.random() < 0.05:
        cut = rng.randrange(len(line))
        line = line[:cut] + b"\xff" + line[cut:]
    return line + b"\n"


def test_ingest_fuzz(tmp_path):
    rng = random.Random(0)
    path = tmp_path / "fuzz.jsonl"
    outcomes, lacks_key = {"parsed": 0, "refused": 0}, 0
    for _ in range(200):
        path.write_bytes(b"".join(_fuzz_line(rng, k)
                                  for k in range(rng.randrange(1, 4))))
        try:
            discussions, _ = parse_corpus(str(path))
        except CorpusError as exc:
            outcomes["refused"] += 1
            # a missing key is named with its owner, never as a bare repr
            assert not re.fullmatch(r"malformed corpus line \d+: '\w+'",
                                    str(exc)), exc
            lacks_key += " lacks key " in str(exc)
            continue
        outcomes["parsed"] += 1
        for d in discussions:
            depth = {d.id: 0}
            depth.update((c.id, c.depth) for c in d.comments)
            assert len(depth) == len(d.comments) + 1
            for c in d.comments:
                assert c.depth == depth[c.parent_id] + 1
            keys = [(c.timestamp, c.id) for c in d.comments]
            assert keys == sorted(keys)
    assert min(outcomes.values()) >= 40, outcomes
    assert lacks_key >= 10


def test_read_discussions_equals_parse_corpus_on_fuzzed_lines(tmp_path):
    """Orphans, removed authors, clamped timestamps and reply chains in any
    order all survive the round trip through ingest's output."""
    rng = random.Random(1)
    path = tmp_path / "fuzz.jsonl"
    read = 0
    for _ in range(200):
        path.write_bytes(b"".join(_fuzz_line(rng, k)
                                  for k in range(rng.randrange(1, 4))))
        try:
            discussions, _ = parse_corpus(str(path))
        except CorpusError:
            continue
        assert _read_back(discussions, tmp_path / "out.jsonl") == discussions
        read += 1
    assert read >= 40
