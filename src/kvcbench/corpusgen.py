"""Synthetic people-and-projects corpus with controlled evidence spread.

A corpus is a fixed number of equal-width chunks (default 128 x 256 word
tokens = 32768), one chunk per fact record plus filler:

* a person chunk per person (age, occupation, city, hobbies),
* a project chunk per project (domain, sponsor, start year, summary),
* a membership chunk per person listing `connectivity` links, each a
  (project title, role, department) triple,
* filler chunks of neutral words.

Chunks are shuffled, so a chunk's id is its position in the corpus and the
token at offset o of chunk c sits at corpus position c * chunk_tokens + o.
Connectivity is the experiment's difficulty dial: join questions about a
person's projects require 1 + connectivity chunks of evidence, direct
questions exactly one (the membership chunk).

All text is lowercase and punctuation-free (the department token "r&d" is
the one glyphful word), names are single underscore-joined tokens, and
every random draw goes through one seeded random.Random, so a spec
regenerates its bundle bit for bit.  The similar-name variant replaces
names with person_01..person_NN while consuming the identical random
stream, which makes the two variants isomorphic under token renaming.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from ._binio import atomic_write, json_record, read_artifact
from .errors import FormatError, MalformedSequenceError, UsageError
from .vocab import TokenSequence, Vocabulary, build_vocabulary, fingerprint_ids

FIRST_NAMES = (
    "alice", "bruno", "carla", "dmitri", "elena", "farid", "greta", "hiro",
    "ines", "jonas", "katya", "liam", "mara", "nolan", "odette", "pavel",
    "quinn", "rosa", "stefan", "tilda", "umar", "vera", "wendell", "xenia",
    "yusuf", "zora", "abel", "bianca", "cedric", "daphne", "emil", "freya",
)
LAST_NAMES = (
    "brennan", "okafor", "silva", "tanaka", "novak", "haddad", "lindqvist", "moreau",
    "petrov", "santos", "vance", "whitaker", "ibarra", "kowalski", "larsen", "mehta",
    "norwood", "osei", "padilla", "quispe", "ramos", "sokolov", "toledo", "ueda",
    "varga", "wexler", "yamada", "zielinski", "ashford", "bellamy", "crowder", "dunmore",
)
PROJECT_TITLES = (
    "atlas", "borealis", "cascade", "dynamo", "ember", "foxtrot", "granite", "horizon",
    "icarus", "jade", "kestrel", "lumen", "meridian", "nimbus", "obsidian", "pinnacle",
    "quartz", "rampart", "sequoia", "talon", "umbra", "vortex", "wildfire", "xenon",
    "yonder", "zephyr", "anchor", "beacon", "citadel", "drift", "everest", "falcon",
)
DEPARTMENTS = ("r&d", "marketing", "engineering", "sales", "finance", "design", "support", "operations")
ROLES = ("engineer", "manager", "analyst", "lead", "tester", "architect")
OCCUPATIONS = (
    "cartographer", "glassblower", "archivist", "beekeeper", "locksmith", "typesetter", "falconer", "chandler",
    "cooper", "fletcher", "saddler", "milliner", "apiarist", "luthier", "farrier", "wainwright",
)
CITIES = (
    "oslo", "lima", "turin", "porto", "dakar", "quito", "hanoi", "leeds",
    "bergen", "malaga", "riga", "seville", "tunis", "osaka", "perth", "galway",
)
HOBBIES = (
    "chess", "rowing", "archery", "pottery", "birding", "cycling", "origami", "fencing",
    "climbing", "juggling", "painting", "sailing", "skiing", "surfing", "weaving", "baking",
)
DOMAINS = (
    "robotics", "forecasting", "cryptography", "telemetry", "imaging", "simulation", "compression", "indexing",
    "translation", "diagnostics", "navigation", "automation", "visualization", "annotation", "clustering", "synthesis",
)
SPONSORS = (
    "helios", "zenith", "polaris", "vega", "altair", "sirius", "castor", "lyra",
    "rigel", "deneb", "mira", "capella", "antares", "spica", "electra", "auriga",
)
YEARS = tuple(str(y) for y in range(1990, 2022))
AGE_RANGE = (23, 61)
FILLER_WORDS = (
    "office", "window", "coffee", "ledger", "corridor", "printer", "lantern", "garden",
    "novel", "theater", "museum", "harbor", "bridge", "market", "castle", "forest",
    "meadow", "river", "valley", "canyon", "desert", "island", "glacier", "volcano",
    "prairie", "lagoon", "marsh", "orchard", "vineyard", "bakery", "library", "stadium",
    "airport", "station", "terminal", "avenue", "boulevard", "plaza", "fountain", "gallery",
    "archive", "workshop", "studio", "cellar", "attic", "balcony", "terrace", "courtyard",
    "pavilion", "kiosk", "depot", "warehouse", "factory", "foundry", "quarry", "mill",
    "barn", "silo", "dock", "pier", "lighthouse", "ferry", "tram", "trolley",
)

DEFAULT_TASK_DESCRIPTION = "answer questions about the people and projects described in the context"
# cue words used when flattening guidance prompts; kept in every bundle vocab
GUIDANCE_CUE_WORDS = ("example", "question", "answer")

CHUNK_KINDS = ("person", "project", "membership", "filler")
QUESTION_KINDS = ("direct", "join")
NAME_STYLES = ("distinct", "similar")
MAX_CONNECTIVITY = 8
BUNDLE_SCHEMA_VERSION = 2

# question text per (kind, template id); {p} person name, {t} project title.
# Punctuation-free renderings so every word round-trips the tokenizer.
DIRECT_TEMPLATES = (
    "which projects does {p} belong to",
    "which role does {p} have in {t}",
    "which department is {p} part of",
)
JOIN_TEMPLATES = (
    "what are the project domains of {p}",
    "in which years did the projects of {p} begin",
    "who sponsors the projects of {p}",
)


@dataclass(frozen=True)
class CorpusSpec:
    seed: int
    connectivity: int
    n_people: int = 32
    n_projects: int = 32
    n_filler: int = 32
    chunk_tokens: int = 256
    questions_per_kind: int = 25
    name_style: str = "distinct"

    def __post_init__(self):
        if not (1 <= self.connectivity <= MAX_CONNECTIVITY):
            raise UsageError(f"connectivity must be in [1, {MAX_CONNECTIVITY}]")
        if self.connectivity > self.n_projects:
            raise UsageError("connectivity cannot exceed the number of projects")
        if not (1 <= self.n_people <= len(FIRST_NAMES)):
            raise UsageError(f"n_people must be in [1, {len(FIRST_NAMES)}]")
        if not (1 <= self.n_projects <= len(PROJECT_TITLES)):
            raise UsageError(f"n_projects must be in [1, {len(PROJECT_TITLES)}]")
        if self.n_filler < 0:
            raise UsageError("n_filler must be >= 0")
        # longest template line is a membership chunk at max connectivity
        if self.chunk_tokens < 80:
            raise UsageError("chunk_tokens must be >= 80")
        if not (1 <= self.questions_per_kind <= self.n_people):
            raise UsageError("questions_per_kind must be in [1, n_people]")
        if self.name_style not in NAME_STYLES:
            raise UsageError(f"name_style must be {' or '.join(map(repr, NAME_STYLES))}")

    @property
    def n_chunks(self) -> int:
        return 2 * self.n_people + self.n_projects + self.n_filler

    @property
    def n_tokens(self) -> int:
        return self.n_chunks * self.chunk_tokens


@dataclass(frozen=True)
class PersonRecord:
    name: str
    age: int
    occupation: str
    city: str
    hobbies: tuple[str, ...]


@dataclass(frozen=True)
class ProjectRecord:
    title: str
    domain: str
    sponsor: str
    year_started: str
    summary: str


@dataclass(frozen=True)
class MembershipRecord:
    """One person's project links: (project title, role, department) each."""

    person: str
    links: tuple[tuple[str, str, str], ...]


@dataclass(frozen=True)
class ChunkDoc:
    chunk_id: int
    kind: str
    text: str

    def __post_init__(self):
        if self.kind not in CHUNK_KINDS:
            raise UsageError(f"chunk kind {self.kind!r} is not one of {CHUNK_KINDS}")


@dataclass(frozen=True)
class Question:
    qid: str
    kind: str
    template_id: int
    text: str
    answers: tuple[str, ...]
    evidence: tuple[int, ...]
    gold_positions: tuple[int, ...]
    entities: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in QUESTION_KINDS:
            raise UsageError(f"question kind {self.kind!r} is not one of {QUESTION_KINDS}")


@dataclass
class CorpusBundle:
    spec: CorpusSpec
    chunks: list[ChunkDoc]
    questions: list[Question]
    vocab: Vocabulary

    def corpus_text(self) -> str:
        return " ".join(doc.text for doc in self.chunks)

    def corpus_tokens(self) -> TokenSequence:
        from .vocab import tokenize

        return tokenize(self.corpus_text(), self.vocab)

    def corpus_fingerprint(self) -> bytes:
        return fingerprint_ids(self.corpus_tokens().ids)


def _person_name(style: str, index: int, last_perm: list[int]) -> str:
    if style == "similar":
        return f"person_{index + 1:02d}"
    return f"{FIRST_NAMES[index]}_{LAST_NAMES[last_perm[index]]}"


def _person_text(p: PersonRecord) -> str:
    hobby_part = " and ".join(p.hobbies)
    return (
        f"{p.name} is {p.age} years old and works as a {p.occupation} "
        f"based in {p.city} and enjoys {hobby_part}"
    )


def _project_text(pr: ProjectRecord) -> str:
    return (
        f"{pr.title} is a project in the {pr.domain} domain sponsored by "
        f"{pr.sponsor} and started in {pr.year_started} {pr.summary}"
    )


def _membership_text(m: MembershipRecord) -> str:
    parts = [f"{t} as {r} in the {d} department" for t, r, d in m.links]
    return f"{m.person} belongs to {len(m.links)} projects " + " and ".join(parts)


def _pad_to_width(rng: random.Random, text: str, width: int) -> str:
    words = text.split()
    if len(words) > width:
        raise UsageError(f"chunk template needs {len(words)} tokens, chunk width is {width}")
    pad = rng.choices(FILLER_WORDS, k=width - len(words))
    return " ".join(words + pad)


def generate_corpus(spec: CorpusSpec) -> CorpusBundle:
    """Build a bundle deterministically from the spec.

    The random stream never depends on name_style: names are a pure
    function of (style, person index, last-name permutation), so the
    distinct and similar variants differ only by token renaming.
    """
    rng = random.Random(spec.seed)

    last_perm = list(range(len(LAST_NAMES)))
    rng.shuffle(last_perm)

    people: list[PersonRecord] = []
    for i in range(spec.n_people):
        name = _person_name(spec.name_style, i, last_perm)
        age = rng.randint(*AGE_RANGE)
        occupation = rng.choice(OCCUPATIONS)
        city = rng.choice(CITIES)
        hobbies = tuple(rng.sample(HOBBIES, 2))
        people.append(PersonRecord(name, age, occupation, city, hobbies))

    projects: list[ProjectRecord] = []
    for i in range(spec.n_projects):
        projects.append(
            ProjectRecord(
                title=PROJECT_TITLES[i],
                domain=rng.choice(DOMAINS),
                sponsor=rng.choice(SPONSORS),
                year_started=rng.choice(YEARS),
                summary=" ".join(rng.choices(FILLER_WORDS, k=8)),
            )
        )

    memberships: list[MembershipRecord] = []
    for p in people:
        picked = rng.sample(range(spec.n_projects), spec.connectivity)
        links = tuple(
            (projects[j].title, rng.choice(ROLES), rng.choice(DEPARTMENTS))
            for j in picked
        )
        memberships.append(MembershipRecord(person=p.name, links=links))

    texts: list[tuple[str, str]] = []  # (kind, raw text)
    texts += [("person", _person_text(p)) for p in people]
    texts += [("project", _project_text(pr)) for pr in projects]
    texts += [("membership", _membership_text(m)) for m in memberships]
    texts += [("filler", " ".join(rng.choices(FILLER_WORDS, k=spec.chunk_tokens))) for _ in range(spec.n_filler)]

    rng.shuffle(texts)
    chunks = [
        ChunkDoc(chunk_id=i, kind=kind, text=_pad_to_width(rng, text, spec.chunk_tokens))
        for i, (kind, text) in enumerate(texts)
    ]

    bundle = CorpusBundle(
        spec=spec,
        chunks=chunks,
        questions=[],
        vocab=Vocabulary(),
    )
    bundle.questions = _generate_questions(rng, bundle, projects, memberships)

    corpus_words = bundle.corpus_text().split()
    question_words = [w for q in bundle.questions for w in q.text.split()]
    guidance_words = list(DEFAULT_TASK_DESCRIPTION.split()) + list(GUIDANCE_CUE_WORDS)
    bundle.vocab = build_vocabulary([*corpus_words, *question_words, *guidance_words])
    return bundle


def _chunk_of_kind(bundle: CorpusBundle, kind: str, key: str) -> int:
    """Chunk id of the fact chunk of `kind` whose text starts with `key`."""
    for doc in bundle.chunks:
        if doc.kind == kind and doc.text.split()[0] == key:
            return doc.chunk_id
    raise UsageError(f"no {kind} chunk starts with token {key!r}")


def _dedupe(values) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for v in values:
        seen.setdefault(v, None)
    return tuple(seen)


def _generate_questions(
    rng: random.Random, bundle: CorpusBundle, projects: list[ProjectRecord], memberships: list[MembershipRecord],
) -> list[Question]:
    spec = bundle.spec
    by_title = {pr.title: pr for pr in projects}
    questions: list[Question] = []

    def finish(qid, kind, template_id, text, answers, evidence, entities) -> Question:
        q = Question(
            qid=qid,
            kind=kind,
            template_id=template_id,
            text=text,
            answers=tuple(answers),
            evidence=tuple(evidence),
            gold_positions=(),
            entities=tuple(entities),
        )
        positions = compute_gold_token_positions(bundle, q)
        return dataclasses.replace(q, gold_positions=positions)

    direct_people = rng.sample(range(spec.n_people), spec.questions_per_kind)
    for i, pi in enumerate(direct_people):
        m = memberships[pi]
        name = m.person
        evidence = [_chunk_of_kind(bundle, "membership", name)]
        t = i % len(DIRECT_TEMPLATES)
        qid = f"s{spec.seed}c{spec.connectivity}d{i:02d}"
        if t == 0:
            text = DIRECT_TEMPLATES[0].format(p=name)
            answers = [title for title, _, _ in m.links]
            entities = [name]
        elif t == 1:
            title, role, _ = m.links[rng.randrange(len(m.links))]
            text = DIRECT_TEMPLATES[1].format(p=name, t=title)
            answers = [role]
            entities = [name, title]
        else:
            text = DIRECT_TEMPLATES[2].format(p=name)
            answers = _dedupe(dept for _, _, dept in m.links)
            entities = [name]
        questions.append(finish(qid, "direct", t, text, answers, evidence, entities))

    join_people = rng.sample(range(spec.n_people), spec.questions_per_kind)
    for i, pi in enumerate(join_people):
        m = memberships[pi]
        name = m.person
        linked = [by_title[title] for title, _, _ in m.links]
        evidence = [_chunk_of_kind(bundle, "membership", name)]
        evidence += [_chunk_of_kind(bundle, "project", pr.title) for pr in linked]
        t = i % len(JOIN_TEMPLATES)
        qid = f"s{spec.seed}c{spec.connectivity}j{i:02d}"
        if t == 0:
            answers = _dedupe(pr.domain for pr in linked)
        elif t == 1:
            answers = _dedupe(pr.year_started for pr in linked)
        else:
            answers = _dedupe(pr.sponsor for pr in linked)
        text = JOIN_TEMPLATES[t].format(p=name)
        questions.append(finish(qid, "join", t, text, answers, evidence, [name]))

    return questions


def compute_gold_token_positions(bundle: CorpusBundle, question: Question) -> tuple[int, ...]:
    """Corpus offsets of every gold-answer token inside the evidence chunks.

    Every answer must occur at least once; a miss means the generator
    wrote a question whose answer is not in its own evidence, which is a
    bug, not a data condition.
    """
    width = bundle.spec.chunk_tokens
    positions: list[int] = []
    found: set[str] = set()
    answer_set = set(question.answers)
    for cid in question.evidence:
        words = bundle.chunks[cid].text.split()
        for off, w in enumerate(words):
            if w in answer_set:
                positions.append(cid * width + off)
                found.add(w)
    missing = answer_set - found
    if missing:
        raise RuntimeError(
            f"generator bug: answers {sorted(missing)} of {question.qid} absent from evidence chunks"
        )
    return tuple(sorted(positions))


def entity_token_positions(bundle: CorpusBundle, entities) -> tuple[int, ...]:
    """All corpus offsets whose token equals one of the entity name tokens."""
    width = bundle.spec.chunk_tokens
    names = set(entities)
    positions = [
        doc.chunk_id * width + off
        for doc in bundle.chunks
        for off, w in enumerate(doc.text.split())
        if w in names
    ]
    return tuple(sorted(positions))


# --- bundle directory layout -------------------------------------------------
#   corpus.jsonl     one chunk per line: {chunk_id, kind, text}
#   questions.jsonl  one question per line, all Question fields
#   vocab.txt        one token per line, id = line number
#   spec.json        CorpusSpec fields + schema_version + bundle_sha256, the
#                    fingerprint of the spec fields and the other three files
BUNDLE_DATA_FILES = ("corpus.jsonl", "questions.jsonl", "vocab.txt")


def _bundle_sha256(spec: CorpusSpec, files: dict[str, bytes]) -> str:
    h = hashlib.sha256(json.dumps(dataclasses.asdict(spec), sort_keys=True).encode())
    for part in BUNDLE_DATA_FILES:
        h.update(len(files[part]).to_bytes(8, "little") + files[part])
    return h.hexdigest()


def save_bundle(bundle: CorpusBundle, out_dir: Path | str) -> Path:
    out = Path(out_dir)
    chunks = map(dataclasses.asdict, bundle.chunks)
    # the inverse of load_bundle's rename of "id" to "qid"
    questions = [{"id": row.pop("qid"), **row} for row in map(dataclasses.asdict, bundle.questions)]
    files = {}
    for part, rows in (("corpus.jsonl", chunks), ("questions.jsonl", questions)):
        files[part] = "".join(json.dumps(row) + "\n" for row in rows).encode()
        with atomic_write(out / part, "wb") as fh:
            fh.write(files[part])
    files["vocab.txt"] = bundle.vocab.save(out / "vocab.txt")
    meta = dataclasses.asdict(bundle.spec)
    meta["schema_version"] = BUNDLE_SCHEMA_VERSION
    meta["bundle_sha256"] = _bundle_sha256(bundle.spec, files)
    with atomic_write(out / "spec.json") as fh:
        fh.write(json.dumps(meta, indent=2) + "\n")
    return out


def _json_rows(path: Path, data: bytes, build) -> list:
    """`build(row)` per JSON line of `data`, read from `path`; FormatError
    names a bad line."""
    rows = []
    for i, line in enumerate(data.splitlines(), 1):
        try:
            rows.append(build(json.loads(line)))
        except (ValueError, TypeError, UsageError) as exc:
            raise FormatError(f"{path}: line {i} is not a valid row: {exc!r}") from None
    return rows


def load_bundle(bundle_dir: Path | str) -> CorpusBundle:
    root = Path(bundle_dir)
    files = {
        part: read_artifact(root / part, "bundle file") for part in ("spec.json", *BUNDLE_DATA_FILES)
    }
    try:
        meta = json.loads(files["spec.json"])
        if meta.pop("schema_version", BUNDLE_SCHEMA_VERSION) != BUNDLE_SCHEMA_VERSION:
            raise FormatError(f"unsupported bundle schema in {root / 'spec.json'}")
        stored_sha = meta.pop("bundle_sha256", None)
        spec = json_record(CorpusSpec, meta)
    except (ValueError, TypeError, AttributeError, UsageError) as exc:
        raise FormatError(f"bad spec.json in {root}: {exc}") from None

    chunks = _json_rows(
        root / "corpus.jsonl", files["corpus.jsonl"], lambda row: json_record(ChunkDoc, row)
    )
    if len(chunks) != spec.n_chunks:
        raise FormatError(f"{root}: expected {spec.n_chunks} chunks, found {len(chunks)}")
    for i, doc in enumerate(chunks):
        if doc.chunk_id != i:
            raise FormatError(f"{root}: chunk ids out of order at line {i}")
        if len(doc.text.split()) != spec.chunk_tokens:
            raise FormatError(f"{root}: chunk {i} is not {spec.chunk_tokens} tokens")

    questions = _json_rows(
        root / "questions.jsonl", files["questions.jsonl"],
        lambda row: json_record(Question, row, rename={"id": "qid"}),
    )
    try:
        vocab = Vocabulary.parse(files["vocab.txt"], root / "vocab.txt")
    except (MalformedSequenceError, ValueError) as exc:
        raise FormatError(f"bad vocab.txt in {root}: {exc}") from None
    if stored_sha != _bundle_sha256(spec, files):
        raise FormatError(
            f"{root}: the content of spec.json, {', '.join(BUNDLE_DATA_FILES)} does not match "
            f"recorded fingerprint bundle_sha256{'' if stored_sha else ' (none recorded)'}"
        )
    return CorpusBundle(spec=spec, chunks=chunks, questions=questions, vocab=vocab)
