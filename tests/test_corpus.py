import json
import math
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from threadcurve import synth
from threadcurve.corpus import (Corpus, CorpusError, Discussion, Post,
                                embedded_users, growth_target, ingest,
                                parse_corpus, windowize)
from corpus_reference import record_ingest, serialize_corpus
from threadcurve.storage import load_store, save_store
from text_reference import text_stats
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


def _stats(corpus, lo, hi):
    """`Texts.join` of the store's texts lo[r] .. hi[r] - 1, as one
    (pairs, sentences, URLs, closing marks) tuple per record: the fields
    of `text_stats`."""
    texts = corpus.texts
    records = texts.join(lo, hi)
    return [(tuple((texts.vocabulary[k], int(tf)) for k, tf in
                   zip(records.ids[records.record == r],
                       records.tf[records.record == r])),
             int(records.sentences[r]), int(records.urls[r]),
             int(records.closing[r])) for r in range(len(lo))]


def _assert_store_holds(discussions, path):
    """The store of `discussions`, written and read back as `ingest` and
    the later stages do, holds their fields, and each array the dtype that
    `Corpus.of` gave it."""
    made = Corpus.of(discussions).tensors()
    save_store(made, str(path))
    tensors = load_store(str(path))
    assert sorted(tensors) == sorted(Corpus.KEYS)
    assert {k: v.dtype for k, v in tensors.items()} == {
        k: v.dtype for k, v in made.items()}
    corpus = Corpus.from_tensors(tensors)
    assert corpus.ids == [d.id for d in discussions]
    assert corpus.authors == sorted({d.post.author for d in discussions} | {
        c.author for d in discussions for c in d.comments})
    parent_author = corpus.parent_author()
    for b, d in enumerate(discussions):
        assert corpus.authors[corpus.post_author[b]] == d.post.author
        assert corpus.post_time[b] == d.post.timestamp
        at = slice(corpus.start[b], corpus.start[b + 1])
        position = {c.id: k for k, c in enumerate(d.comments)}
        position[d.id] = -1
        author_of = {c.id: c.author for c in d.comments}
        author_of[d.id] = d.post.author
        assert [corpus.authors[a] for a in corpus.author[at]] == [
            c.author for c in d.comments]
        assert corpus.parent[at].tolist() == [position[c.parent_id]
                                              for c in d.comments]
        assert [corpus.authors[a] for a in parent_author[at]] == [
            author_of[c.parent_id] for c in d.comments]
        assert corpus.time[at].tolist() == [c.timestamp for c in d.comments]
        assert corpus.depth[at].tolist() == [c.depth for c in d.comments]
        # the post joins its title and body; each comment is one text
        title = int(corpus.title[b])
        m = len(d.comments)
        assert _stats(corpus, [title] + list(range(title + 2, title + 2 + m)),
                      [title + 2] + list(range(title + 3, title + 3 + m))) == [
            text_stats(d.post.title + " " + d.post.body)[:4]] + [
            text_stats(c.text)[:4] for c in d.comments]
    last = [d.comments[-1].timestamp if d.comments else d.post.timestamp
            for d in discussions]
    assert corpus.t_end().tolist() == last
    return corpus


def test_store_holds_what_parse_corpus_gives(tiny_corpus, tmp_path):
    """The store that ingest writes holds the fields of what `parse_corpus`
    gave: on the fixtures, on planted corpora, with a reply timestamped
    before its parent, an orphan reattached to the post, an empty body, a
    discussion with no comments and a deep chain listed newest first."""
    spec = synth.SynthSpec(discussions=6, posts=12)
    synth.make_temporal_corpus(spec, 0, str(tmp_path / "t.jsonl"),
                               str(tmp_path / "t.json"))
    synth.make_nontemporal_corpus(spec, 0, str(tmp_path / "n.jsonl"),
                                  str(tmp_path / "n.json"))
    early = make_discussion_json("e", "alice", 1000, [
        {"id": "c0", "author": "bob", "parent_id": "e", "timestamp": 1030,
         "body": "late parent."},
        {"id": "c1", "author": "carol", "parent_id": "c0",
         "timestamp": 1010, "body": "early reply."},
        {"id": "c2", "author": "dave", "parent_id": "gone",
         "timestamp": 1020, "body": "orphan."}])
    early["post"]["body"] = ""
    silent = make_discussion_json("s", "erin", 900, [])
    deep = make_discussion_json(
        "deep", "alice", 1000, chain_comments("deep", ["bob", "carol"] * 50)[::-1])
    paths = [os.path.join(DATA, "cooccur_fixture.jsonl"),
             str(tmp_path / "t.jsonl"), str(tmp_path / "n.jsonl"),
             write_corpus(tmp_path / "odd.jsonl", [early, silent, deep])]
    cases = [tiny_corpus[0]] + [parse_corpus(p)[0] for p in paths]
    odd = cases[-1]
    assert [c.id for c in odd[0].comments] == ["c1", "c2", "c0"]
    assert odd[0].comments[1].parent_id == "e" and not odd[1].comments
    for k, discussions in enumerate(cases):
        _assert_store_holds(discussions, tmp_path / ("%d.bin" % k))
    # a reply whose parent comes later in time: position 2, after it
    assert _assert_store_holds(odd, tmp_path / "odd.bin").parent[:3].tolist(
        ) == [2, -1, -1]


# titles without a closing mark or ending in one, bodies that start blank
# or with a mark, and URLs on either side of the join
TITLES = ["No closing mark", "Ends here.", "http://a.b/c", "www.x.org",
          "Two. Sentences", "trailing  ", "?!", "a"]
BODIES = ["", " ", "  starts blank. then more", "http://q.r then text",
          ". leading mark", "www.y.org", "plain body", "!"]


def test_post_records_join_title_and_body():
    """Every post record, the join of its title and body texts, is the
    record of title + " " + body."""
    rng = random.Random(2)
    posts = [(t, b) for t in TITLES for b in BODIES]
    posts += [(rng.choice(TITLES) + rng.choice(BODIES), rng.choice(BODIES)
               + rng.choice(TITLES)) for _ in range(200)]
    discussions = [Discussion(Post("p%d" % k, "u", title, body, 0), ())
                   for k, (title, body) in enumerate(posts)]
    corpus = Corpus.of(discussions)
    assert _stats(corpus, corpus.title, corpus.title + 2) == [
        text_stats(title + " " + body)[:4] for title, body in posts]


def test_store_does_not_depend_on_the_hash_seed(tmp_path):
    """Two processes with different PYTHONHASHSEED write the same lines and
    store bytes from one corpus, in one pass and by the record path."""
    spec = synth.SynthSpec(discussions=30)
    corpus = str(tmp_path / "corpus.jsonl")
    synth.make_temporal_corpus(spec, 0, corpus, str(tmp_path / "t.json"))
    script = ("import sys\n"
              "from threadcurve.corpus import ingest\n"
              "from threadcurve.storage import save_store\n"
              "from corpus_reference import record_ingest\n"
              "corpus, out = sys.argv[1:]\n"
              "lines, one_pass, _ = ingest(corpus)\n"
              "open(out + '.jsonl', 'w').writelines(lines)\n"
              "save_store(one_pass.tensors(), out + '.bin')\n"
              "save_store(record_ingest(corpus, out + '_records.jsonl')[0],"
              " out + '_records.bin')\n")
    written = []
    for hash_seed in ("0", "1"):
        out = str(tmp_path / ("seed%s" % hash_seed))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([
                       os.path.dirname(os.path.dirname(
                           os.path.abspath(synth.__file__))),
                       os.path.dirname(os.path.abspath(__file__))]))
        subprocess.run([sys.executable, "-c", script, corpus, out], env=env,
                       check=True)
        for name in (".jsonl", "_records.jsonl", ".bin", "_records.bin"):
            with open(out + name, "rb") as fh:
                written.append(fh.read())
    assert written[0] == written[1] and written[2] == written[3]
    assert written[:4] == written[4:]


def test_store_strings_keep_long_and_non_ascii_names(tmp_path):
    """Ids and names are one UTF-8 blob with offsets: a long name costs
    its own bytes only, and non-ASCII names come back whole."""
    names = ["ann", "Zoë", "名前", "x" * 5000, ""]
    discussions = [Discussion(Post("d%d" % k, name, "t", "", k), ())
                   for k, name in enumerate(names)]
    corpus = _assert_store_holds(discussions, tmp_path / "s.bin")
    tensors = corpus.tensors()
    assert tensors["authors"].dtype == np.uint8
    assert tensors["authors"].size == sum(len(n.encode()) for n in names)


def test_null_body_is_empty_and_a_null_id_or_author_is_named(tmp_path):
    """A null body reads as a missing one, empty, and adds no token; a
    null id or author is refused, naming the field and its owner."""
    disc = make_discussion_json("n1", "alice", 1000,
                                chain_comments("n1", ["bob", "carol"]))
    disc["post"]["body"] = None
    disc["comments"][1]["body"] = None
    path = write_corpus(tmp_path / "null.jsonl", [disc])
    d = parse_corpus(path)[0][0]
    assert d.post.body == "" and d.comments[1].text == ""
    lines, corpus, _ = ingest(path)
    line = json.loads(lines[0])
    assert line["post"]["body"] == "" and line["comments"][1]["body"] == ""
    assert "none" not in corpus.texts.vocabulary
    for owner, key, message in [
            ("post", "id", "the post has a null 'id'"),
            ("post", "author", "post 'n1' has a null 'author'"),
            ("comment", "id", "comment 1 of post 'n1' has a null 'id'"),
            ("comment", "author", "comment 'n1_c1' has a null 'author'")]:
        bad = json.loads(json.dumps(disc))
        (bad["post"] if owner == "post" else bad["comments"][1])[key] = None
        path = write_corpus(tmp_path / "bad.jsonl", [bad])
        with pytest.raises(CorpusError) as refused:
            parse_corpus(path)
        assert str(refused.value) == "malformed corpus line 1: " + message


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


def _assert_one_pass_matches_the_records(path, tmp_path):
    """`ingest` gives the bytes of the record path (`corpus_reference`):
    the same lines, the same store and the same manifest, or the same
    refusal."""
    try:
        tensors, manifest = record_ingest(path,
                                          str(tmp_path / "records.jsonl"))
    except CorpusError as exc:
        with pytest.raises(CorpusError) as refused:
            ingest(path)
        assert str(refused.value) == str(exc)
        return
    lines, corpus, got = ingest(path)
    assert "".join(lines) == (tmp_path / "records.jsonl").read_text()
    save_store(tensors, str(tmp_path / "records.bin"))
    save_store(corpus.tensors(), str(tmp_path / "one_pass.bin"))
    assert ((tmp_path / "one_pass.bin").read_bytes()
            == (tmp_path / "records.bin").read_bytes())
    assert got == manifest


def test_ingest_fuzz(tmp_path):
    rng = random.Random(0)
    path = tmp_path / "fuzz.jsonl"
    outcomes, lacks_key = {"parsed": 0, "refused": 0}, 0
    for _ in range(200):
        path.write_bytes(b"".join(_fuzz_line(rng, k)
                                  for k in range(rng.randrange(1, 4))))
        _assert_one_pass_matches_the_records(str(path), tmp_path)
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


def test_store_holds_what_parse_corpus_gives_on_fuzzed_lines(tmp_path):
    """Orphans, removed authors, clamped timestamps and reply chains in any
    order all reach the store."""
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
        _assert_store_holds(discussions, tmp_path / "out.bin")
        read += 1
    assert read >= 40

