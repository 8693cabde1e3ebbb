import hashlib

from wherecheck.parser import parse_program
from wherecheck.policy import gather_downgrades, parse_policy
from wherecheck.randprog import GenConfig, declass_free, generate
from wherecheck.syntax import DeclassAssign, If, Input, Seq, While


def walk(cmd):
    yield cmd
    match cmd:
        case Seq(a, b):
            yield from walk(a)
            yield from walk(b)
        case If(_, _, then, orelse):
            yield from walk(then)
            yield from walk(orelse)
        case While(_, _, body):
            yield from walk(body)
        case _:
            pass


def count_nested(cmd, kind, inside=False):
    """Occurrences of `kind` strictly below the nesting boundary."""
    match cmd:
        case Seq(a, b):
            return count_nested(a, kind, inside) + count_nested(b, kind, inside)
        case If(_, _, then, orelse):
            deeper = inside or kind is Input  # inputs must be strictly top level
            return count_nested(then, kind, deeper) + count_nested(orelse, kind, deeper)
        case While(_, _, body):
            return count_nested(body, kind, True)
        case _:
            return 1 if isinstance(cmd, kind) and inside else 0


def test_generated_programs_parse_and_respect_regime():
    for seed in range(300):
        gen = generate(seed)
        program = parse_program(gen.text)
        policy = gather_downgrades(program, parse_policy(gen.policy_text))
        declass = [c for c in walk(program.root) if isinstance(c, DeclassAssign)]
        assert len(declass) <= 1
        assert count_nested(program.root, DeclassAssign) == 0
        assert policy.level_of(gen.variables[0]) == "L"


def test_io_profile_inputs_top_level_with_exact_lengths():
    cfg = GenConfig(io=True)
    for seed in range(200):
        gen = generate(seed, cfg)
        program = parse_program(gen.text)
        policy = gather_downgrades(program, parse_policy(gen.policy_text))
        assert count_nested(program.root, Input) == 0
        reads: dict[str, int] = {}
        for cmd in walk(program.root):
            if isinstance(cmd, Input):
                reads[cmd.channel] = reads.get(cmd.channel, 0) + 1
        for chan, n in reads.items():
            assert policy.channels[chan].length == n


def test_generation_is_deterministic():
    for seed in (0, 7, 123):
        a, b = generate(seed), generate(seed)
        assert a.text == b.text and a.policy_text == b.policy_text


def test_seeds_vary():
    texts = {generate(seed).text for seed in range(40)}
    assert len(texts) > 20


def test_declass_free_profile():
    cfg = declass_free()
    for seed in range(100):
        program = parse_program(generate(seed, cfg).text)
        assert not any(isinstance(c, DeclassAssign) for c in walk(program.root))


def test_declass_substitution_renders():
    hit = 0
    for seed in range(200):
        gen = generate(seed, declass_free())
        slots = gen.assign_slots()
        if not slots:
            continue
        hit += 1
        variant = parse_program(gen.with_declass(slots[0]))
        base = parse_program(gen.text)
        swapped = [c for c in walk(variant.root) if isinstance(c, DeclassAssign)]
        assert len(swapped) == 1
        assert variant.variables == base.variables
        assert len(list(walk(variant.root))) == len(list(walk(base.root)))
    assert hit > 100


def test_generated_programs_are_pinned():
    # The random sweeps and the randprog-sweep benchmark read these programs.
    digest = hashlib.sha256()
    for cfg in (GenConfig(), GenConfig(io=True), declass_free(), declass_free(GenConfig(io=True))):
        for seed in range(400):
            gen = generate(seed, cfg)
            digest.update(f"{gen.text}\n{gen.policy_text}\n".encode())
    assert digest.hexdigest()[:16] == "5a5d5e3352ad6a99"
