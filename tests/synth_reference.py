"""The synthetic generators as they drew each sentence with
`rng.choice(pool, size=n)` and read numpy scalars one at a time: the
reference that `threadcurve.synth` is tested against. Each writes the same
files as its counterpart in `threadcurve.synth` from the same draws."""

import json
import math

import numpy as np

from threadcurve.synth import (ATTRACT_WORD, BASE_TIME, EMPTY_FRACTION,
                               REPEL_WORD, WINDOW_GAP, _user, _word_pool)


def _sentence(rng, pool, n_words):
    return " ".join(rng.choice(pool, size=n_words)) + "."


def make_temporal_corpus(spec, seed, corpus_path, truth_path):
    rng = np.random.default_rng(seed)
    pool = _word_pool(spec)
    truth = {"rule": "window labels equal the one-hot topic cluster",
             "growth_shifted": {str(k): math.log(1.0 + spec.w / k)
                                for k in range(1, spec.N + 1)},
             "topics": {}}
    with open(corpus_path, "w") as fh:
        for j in range(spec.discussions):
            c = j % spec.clusters
            post_t = BASE_TIME + j * 50_000
            post_author = _user(c, j % spec.users_per_cluster)
            disc_id = "d%03d" % j
            truth["topics"][disc_id] = c
            title = _sentence(rng, pool, 4)[:-1]
            post = {"id": disc_id, "author": post_author, "title": title,
                    "body": _sentence(rng, pool, int(rng.integers(6, 12))),
                    "timestamp": post_t}
            comments = []
            cid = 0
            members = rng.permutation(spec.users_per_cluster)
            for k in range(1, spec.N + 1):
                start = post_t + k * WINDOW_GAP
                offsets = sorted(
                    int(x) for x in rng.integers(0, k + 1, size=spec.w - 2))
                times = [start] + [start + o for o in offsets] + [start + k]
                prev_id = post["id"] if k == 1 else comments[-1]["id"]
                for m in range(spec.w):
                    author = _user(c, int(members[(cid + m) % spec.users_per_cluster]))
                    comment_id = "%s_c%02d" % (disc_id, cid + m)
                    parent = prev_id
                    prev_id = comment_id
                    comments.append({
                        "id": comment_id, "author": author, "parent_id": parent,
                        "timestamp": times[m],
                        "body": _sentence(rng, pool, int(rng.integers(5, 10))),
                    })
                cid += spec.w
            fh.write(json.dumps({"post": post, "comments": comments},
                                sort_keys=True) + "\n")
    with open(truth_path, "w") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
    return corpus_path, truth_path


def make_nontemporal_corpus(spec, seed, corpus_path, truth_path):
    rng = np.random.default_rng(seed)
    pool = _word_pool(spec)
    n_users = spec.clusters * spec.users_per_cluster
    all_users = [_user(c, k) for c in range(spec.clusters)
                 for k in range(spec.users_per_cluster)]
    n_empty = int(round(spec.posts * EMPTY_FRACTION))
    truth = {"rule": "attracts iff title contains %r" % ATTRACT_WORD,
             "labels": {}}
    with open(corpus_path, "w") as fh:
        for j in range(spec.posts):
            attract = j >= n_empty
            disc_id = "p%04d" % j
            keyword = ATTRACT_WORD if attract else REPEL_WORD
            filler = " ".join(rng.choice(pool, size=2))
            title = "%s %s %s" % (keyword, keyword, filler)
            post_t = BASE_TIME + j * 10_000
            author = all_users[j % n_users]
            post = {"id": disc_id, "author": author, "title": title,
                    "body": _sentence(rng, pool, int(rng.integers(5, 10))),
                    "timestamp": post_t}
            comments = []
            if attract:
                for m in range(int(rng.integers(2, 5))):
                    commenter = all_users[int(rng.integers(n_users))]
                    comments.append({
                        "id": "%s_c%d" % (disc_id, m), "author": commenter,
                        "parent_id": disc_id,
                        "timestamp": post_t + 60 * (m + 1),
                        "body": _sentence(rng, pool, int(rng.integers(4, 9))),
                    })
            truth["labels"][disc_id] = int(attract)
            fh.write(json.dumps({"post": post, "comments": comments},
                                sort_keys=True) + "\n")
    with open(truth_path, "w") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
    return corpus_path, truth_path
