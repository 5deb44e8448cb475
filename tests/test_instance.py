"""Instance model: parsing, validation, serialization, random generation."""

import random
import re
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import given

from cellform import (Instance, InstanceError, InstanceWarning, Part,
                      generate_instance, parse_instance, serialize_instance)
from cellform import instance as instance_module
from cellform.instance import MAX_EXACT, MAX_FLOW, MAX_MACHINES, \
    MAX_PARTS, MAX_ROUTING_LEN, MAX_SCALE, MAX_VOLUME_EXPONENT, \
    vertex_groups
from helpers import instances, random_instance


class TestParse:
    def test_minimal_file(self):
        inst = parse_instance("machines 2\nmax_cell_size 1\npart 5 : 1 2\n")
        assert inst.machine_count == 2
        assert inst.max_cell_size == 1
        assert inst.parts == (Part(Fraction(5), (0, 1)),)
        assert inst.cohabit == frozenset()
        assert inst.separate == frozenset()

    def test_comments_and_blank_lines(self):
        text = """
        # shop layout
        machines 3   # three machines
        max_cell_size 2

        part 1 : 1 2 3  # one routing
        """
        inst = parse_instance(text)
        assert inst.machine_count == 3
        assert inst.parts[0].routing == (0, 1, 2)

    def test_volume_forms(self):
        text = ("machines 2\nmax_cell_size 2\n"
                "part 3 : 1 2\npart 1/2 : 2 1\npart 0.5 : 1 2\n")
        volumes = [p.volume for p in parse_instance(text).parts]
        assert volumes == [Fraction(3), Fraction(1, 2), Fraction(1, 2)]

    @pytest.mark.parametrize("token", ["1e10000000", "1e-10000000",
                                       "1E4301", "2.5e-0004301",
                                       "1e+1_0000_000"])
    def test_volume_exponent_limit(self, token, monkeypatch):
        # rejected before Fraction builds 10**exponent: 1e10000000 took
        # seconds to refuse, and 1e-10000000 was accepted with a
        # 10-million-digit denominator
        built = []

        def spy(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(instance_module, "Fraction", spy)
        with pytest.raises(InstanceError, match=re.escape(
                f"line 4: volume '{token}' has an exponent beyond "
                f"{MAX_VOLUME_EXPONENT} in magnitude")):
            parse_instance(f"machines 3\nmax_cell_size 2\n# shop\n"
                           f"part {token} : 1 2\n")
        assert (token,) not in built

    def test_volume_exponent_at_limit_and_small_exponents_exact(self):
        # 10**4299 is the largest power of ten with at most 4300 digits.
        # 1e-4299 passes the exponent guard; its denominator then breaks
        # the common-denominator rule, as in Instance(...)
        text = ("machines 2\nmax_cell_size 2\npart 1e-300 : 1 2\n"
                "part 1E+4299 : 1\npart 25e-3 : 1 2\n")
        volumes = [p.volume for p in parse_instance(text).parts]
        assert volumes == [Fraction(1, 10 ** 300), Fraction(10 ** 4299),
                           Fraction(1, 40)]
        with pytest.raises(InstanceError, match=re.escape(
                "line 6: the volumes' common denominator has more than 3991 "
                "digits")):
            parse_instance(text + "part 1e-4299 : 2 1\n")

    @pytest.mark.parametrize("token, routing, volume", [
        ("0e5000", "1 2", Fraction(0)),
        ("0.001e4301", "1", Fraction(10 ** 4298)),
        ("1000e-4302", "1 2", Fraction(1, 10 ** 4299)),
        # Fraction reads underscores in a number from Python 3.11 on
        pytest.param("0.0e-1_0000_000", "1 2", Fraction(0),
                     marks=pytest.mark.skipif(sys.version_info < (3, 11),
                                              reason="Fraction('1_0') needs "
                                                     "Python 3.11"))])
    def test_volume_exponent_of_leading_digit(self, token, routing, volume):
        # the guard reads the value's order of magnitude, not the written
        # exponent, so the file gives what Instance(...) gives for each of
        # these volumes (a one-machine routing carries no flow, so 10**4298
        # fits; 1/10**4299 breaks the common-denominator rule in both)
        text = f"machines 3\nmax_cell_size 2\npart {token} : {routing}\n"
        steps = tuple(int(i) - 1 for i in routing.split())
        try:
            inst = Instance(3, 2, (Part(volume, steps),))
        except InstanceError as refused:
            with pytest.raises(InstanceError,
                               match=f"^line 3: {re.escape(str(refused))}$"):
                parse_instance(text)
        else:
            assert parse_instance(text) == inst

    @pytest.mark.parametrize("volume", [
        Fraction(MAX_EXACT - 1), Fraction(1, MAX_SCALE - 1),
        Fraction(MAX_EXACT - 2, MAX_SCALE - 1), Fraction(1, 10 ** 3990)])
    def test_volume_terms_at_limit_round_trip(self, volume):
        # Python writes ints of up to 4300 digits as text, so a volume
        # whose numerator stays below MAX_EXACT, and whose denominator
        # stays below the common-denominator limit MAX_SCALE, serializes;
        # a one-machine routing carries no flow, so the total flow fits
        inst = Instance(2, 1, (Part(volume, (0,)), ONE_PART))
        assert parse_instance(serialize_instance(inst)) == inst

    @pytest.mark.parametrize("volume", [
        Fraction(MAX_EXACT), Fraction(1, MAX_EXACT),
        Fraction(-MAX_EXACT, 3), Fraction(1234567890 * 10 ** 4295)])
    def test_volume_terms_beyond_limit(self, volume):
        with pytest.raises(InstanceError, match=re.escape(
                "part 2 volume has a numerator or denominator of more than "
                "4300 digits")):
            Instance(2, 1, (ONE_PART, Part(volume, (0,))))

    def test_volume_mantissa_limit(self):
        # Python reads no int of more than 4300 digits from text, so
        # Fraction cannot read this token of value 1
        token = "0." + "0" * 5000 + "1e5001"
        with pytest.raises(InstanceError, match=re.escape(
                f"line 3: volume '{token}' has more than 4300 digits on one "
                f"side of its point")):
            parse_instance(f"machines 3\nmax_cell_size 2\npart {token} : 1\n")

    @pytest.mark.parametrize("form", ["{}/3", "3/{}"])
    def test_volume_slash_limit(self, form):
        # Fraction reads each side of an a/b token with int(): 4300 digits
        # parse, 4301 are refused with a message naming the limit
        text = "machines 3\nmax_cell_size 2\npart {} : 1\n"
        inst = parse_instance(text.format(form.format("0" * 4299 + "3")))
        assert inst.parts[0].volume == 1
        token = form.format("0" * 4300 + "3")
        with pytest.raises(InstanceError, match=re.escape(
                f"line 3: volume '{token}' has more than 4300 digits on one "
                f"side of its slash")):
            parse_instance(text.format(token))

    @pytest.mark.parametrize("token", [
        "/" + "3" * 4301, "3" * 4301 + "/", "1/2/" + "3" * 4301,
        "1./" + "3" * 4301], ids=["no numerator", "no denominator",
                                  "two slashes", "point and slash"])
    def test_malformed_long_slash_token_is_bad_volume(self, token):
        with pytest.raises(InstanceError, match=re.escape(
                f"line 3: bad volume '{token}'")):
            parse_instance(f"machines 3\nmax_cell_size 2\npart {token} : 1\n")

    @pytest.mark.parametrize("token", [
        "1/3e5", "1/3333333333e4400", "1/" + "3" * 4296 + "e5"],
        ids=["short", "large exponent", "long denominator"])
    def test_slash_token_with_exponent_is_bad_volume(self, token):
        # no a/b token takes an exponent, whatever its digits would make
        # of the exponent of a decimal
        with pytest.raises(InstanceError, match=re.escape(
                f"line 3: bad volume '{token}'")):
            parse_instance(f"machines 3\nmax_cell_size 2\npart {token} : 1\n")

    def test_common_denominator_refused_at_its_part(self):
        # 160 parts 1/<3990-digit odd number>, a 640 KB file: each
        # denominator is below MAX_SCALE, but the lcm of the first two has
        # about 7980 digits, so the file is refused at the second part,
        # before any flow is summed
        text = "machines 3\nmax_cell_size 2\n" + "".join(
            f"part 1/{10 ** 3989 + 2 * k + 1} : 1 2\n" for k in range(160))
        assert len(text) > 640_000
        with pytest.raises(InstanceError, match=re.escape(
                "line 4: the volumes' common denominator has more than 3991 "
                "digits")):
            parse_instance(text)

    def test_zero_volume_allowed(self):
        inst = parse_instance("machines 2\nmax_cell_size 1\npart 0 : 1 2\n")
        assert inst.parts[0].volume == 0

    def test_constraint_pairs_normalized(self):
        text = ("machines 5\nmax_cell_size 2\npart 1 : 1 2\n"
                "cohabit 4 2\nseparate 5 1\n")
        inst = parse_instance(text)
        assert inst.cohabit == frozenset({(1, 3)})
        assert inst.separate == frozenset({(0, 4)})

    def test_missing_machines(self):
        with pytest.raises(InstanceError, match="missing machines"):
            parse_instance("max_cell_size 2\n")

    def test_missing_max_cell_size(self):
        with pytest.raises(InstanceError, match="missing max_cell_size"):
            parse_instance("machines 3\n")

    def test_header_must_come_first(self):
        with pytest.raises(InstanceError) as exc:
            parse_instance("part 1 : 1 2\nmachines 3\nmax_cell_size 2\n")
        assert exc.value.line == 1
        assert "must be declared first" in str(exc.value)

    def test_duplicate_headers(self):
        with pytest.raises(InstanceError, match="line 2: duplicate machines"):
            parse_instance("machines 3\nmachines 4\nmax_cell_size 2\n")
        with pytest.raises(InstanceError,
                           match="duplicate max_cell_size"):
            parse_instance(
                "machines 3\nmax_cell_size 2\nmax_cell_size 3\n")

    @pytest.mark.parametrize("text, line, expected", [
        ("machines\n", 1, "expected: machines <count>"),
        ("# shop\nmachines 3 4\n", 2, "expected: machines <count>"),
        ("machines 3\nmax_cell_size\n", 2, "expected: max_cell_size <N>"),
    ])
    def test_header_arity(self, text, line, expected):
        with pytest.raises(InstanceError) as exc:
            parse_instance(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {expected}"

    def test_bad_counts(self):
        with pytest.raises(InstanceError, match="bad machine count 'x'"):
            parse_instance("machines x\n")
        with pytest.raises(InstanceError, match="at least 2, got 1"):
            parse_instance("machines 1\n")
        with pytest.raises(InstanceError, match="at least 1, got 0"):
            parse_instance("machines 3\nmax_cell_size 0\n")

    def test_machine_count_limit(self):
        inst = parse_instance(f"machines {MAX_MACHINES}\nmax_cell_size 3\n")
        assert inst.machine_count == MAX_MACHINES
        with pytest.raises(InstanceError,
                           match=f"line 2: machine count {MAX_MACHINES + 1} "
                                 f"exceeds the limit of {MAX_MACHINES}"):
            parse_instance(f"# shop\nmachines {MAX_MACHINES + 1}\n"
                           f"max_cell_size 3\n")

    def test_part_syntax(self):
        with pytest.raises(InstanceError, match="line 3: expected: part"):
            parse_instance("machines 3\nmax_cell_size 2\npart 1 1 2\n")

    def test_bad_volume_line_number(self):
        with pytest.raises(InstanceError, match="line 3: bad volume 'abc'"):
            parse_instance("machines 3\nmax_cell_size 2\npart abc : 1 2\n")

    def test_negative_volume(self):
        with pytest.raises(InstanceError, match="non-negative"):
            parse_instance("machines 3\nmax_cell_size 2\npart -1 : 1 2\n")

    def test_bad_machine_index(self):
        with pytest.raises(InstanceError, match=re.escape(
                "line 3: part 1 routing references machine 7, valid range "
                "is 1..3")):
            parse_instance("machines 3\nmax_cell_size 2\npart 1 : 1 7\n")
        with pytest.raises(InstanceError, match="bad machine index 'q'"):
            parse_instance("machines 3\nmax_cell_size 2\npart 1 : q 2\n")

    def test_adjacent_duplicate_rejected(self):
        with pytest.raises(InstanceError,
                           match="line 3: routing repeats machine 2"):
            parse_instance("machines 3\nmax_cell_size 2\npart 1 : 2 2 3\n")

    def test_nonadjacent_revisit_allowed(self):
        inst = parse_instance(
            "machines 3\nmax_cell_size 2\npart 1 : 1 2 1 3 1\n")
        assert inst.parts[0].routing == (0, 1, 0, 2, 0)

    def test_pair_arity_and_self_pair(self):
        with pytest.raises(InstanceError, match="expected: cohabit"):
            parse_instance("machines 3\nmax_cell_size 2\ncohabit 1\n")
        with pytest.raises(InstanceError, match="two distinct machines"):
            parse_instance("machines 3\nmax_cell_size 2\nseparate 2 2\n")

    def test_unknown_directive(self):
        with pytest.raises(InstanceError, match="unknown directive 'cell'"):
            parse_instance("machines 3\nmax_cell_size 2\ncell 1 2\n")

    def test_sc_sn_overlap_in_file(self):
        with pytest.raises(InstanceError,
                           match=r"line 4: SC and SN overlap on pair \(1, 2\)"):
            parse_instance("machines 3\nmax_cell_size 2\n"
                           "cohabit 1 2\nseparate 2 1\n")

    def test_sc_sn_overlap_other_order(self):
        with pytest.raises(InstanceError, match="SC and SN overlap"):
            parse_instance("machines 3\nmax_cell_size 2\n"
                           "separate 1 3\ncohabit 3 1\n")


class TestValidation:
    def test_machine_count(self):
        with pytest.raises(InstanceError, match="at least 2"):
            Instance(1, 1)

    def test_machine_count_limit(self):
        assert Instance(MAX_MACHINES, 3).machine_count == MAX_MACHINES
        with pytest.raises(InstanceError, match="exceeds the limit"):
            Instance(MAX_MACHINES + 1, 3)

    def test_max_cell_size(self):
        with pytest.raises(InstanceError, match="at least 1"):
            Instance(3, 0)

    def test_negative_volume(self):
        with pytest.raises(InstanceError, match="part 1 has negative"):
            Instance(2, 1, (Part(Fraction(-1), (0, 1)),))

    def test_empty_routing(self):
        with pytest.raises(InstanceError, match="part 1 has an empty"):
            Instance(2, 1, (Part(Fraction(1), ()),))

    def test_routing_out_of_range(self):
        with pytest.raises(InstanceError,
                           match=r"references machine 4, valid range is 1..3"):
            Instance(3, 1, (Part(Fraction(1), (0, 3)),))

    def test_routing_adjacent_duplicate(self):
        with pytest.raises(InstanceError, match="repeats machine 2"):
            Instance(3, 1, (Part(Fraction(1), (0, 1, 1)),))

    def test_pair_out_of_range(self):
        with pytest.raises(InstanceError, match="out of range"):
            Instance(3, 1, separate=frozenset({(0, 5)}))

    def test_pair_not_normalized(self):
        with pytest.raises(InstanceError, match="not a normalized pair"):
            Instance(3, 1, cohabit=frozenset({(2, 1)}))
        with pytest.raises(InstanceError, match="not a normalized pair"):
            Instance(3, 1, cohabit=frozenset({(1, 1)}))

    def test_sc_sn_overlap(self):
        with pytest.raises(InstanceError,
                           match=r"SC and SN overlap on pair \(1, 2\)"):
            Instance(3, 2, cohabit=frozenset({(0, 1)}),
                     separate=frozenset({(0, 1)}))

    def test_total_flow_limit(self):
        # two steps of half the limit reach it exactly; one more unit
        # anywhere does not fit a float64
        half = MAX_FLOW / 2
        Instance(3, 1, (Part(half, (0, 1, 2)),))
        with pytest.raises(InstanceError, match="total flow exceeds"):
            Instance(3, 1, (Part(half, (0, 1, 2)), Part(Fraction(1), (0, 1))))
        with pytest.raises(InstanceError, match="total flow exceeds"):
            parse_instance("machines 2\nmax_cell_size 1\npart 1e400 : 1 2\n")

    def test_oversize_cohabit_group_warns(self):
        with pytest.warns(InstanceWarning,
                          match=r"cohabitation group \{1, 2, 3\} has 3"):
            Instance(4, 2, cohabit=frozenset({(0, 1), (1, 2)}))

    def test_fitting_cohabit_group_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Instance(4, 2, cohabit=frozenset({(0, 1), (2, 3)}))


ONE_PART = Part(Fraction(1), (0, 1))


class TestOneCheckPerRule:
    """A file that breaks an instance rule is refused with the message
    Instance(...) gives for the same data, behind the offending line."""

    @pytest.mark.parametrize("text, line, args", [
        ("machines 3\nmax_cell_size 2\npart 1 : 1 2\npart -1/2 : 2 3\n", 4,
         dict(machine_count=3, max_cell_size=2,
              parts=(ONE_PART, Part(Fraction(-1, 2), (1, 2))))),
        ("machines 3\nmax_cell_size 2\npart 1 : 1 2\npart 2 : 3 1 1\n", 4,
         dict(machine_count=3, max_cell_size=2,
              parts=(ONE_PART, Part(Fraction(2), (2, 0, 0))))),
        ("machines 3\nmax_cell_size 2\n# pairs\nseparate 2 2\n", 4,
         dict(machine_count=3, max_cell_size=2,
              separate=frozenset({(1, 1)}))),
        ("machines 3\nmax_cell_size 2\ncohabit 1 3\nseparate 3 1\n", 4,
         dict(machine_count=3, max_cell_size=2, cohabit=frozenset({(0, 2)}),
              separate=frozenset({(0, 2)}))),
        ("machines 3\nmax_cell_size 0\n", 2,
         dict(machine_count=3, max_cell_size=0)),
        ("# shop\nmachines 1\nmax_cell_size 2\n", 2,
         dict(machine_count=1, max_cell_size=2)),
        ("machines 3\nmax_cell_size 2\npart 1 : 1 2\npart 1 : 1 7\n", 4,
         dict(machine_count=3, max_cell_size=2,
              parts=(ONE_PART, Part(Fraction(1), (0, 6))))),
        ("machines 3\nmax_cell_size 2\ncohabit 4 1\n", 3,
         dict(machine_count=3, max_cell_size=2, cohabit=frozenset({(0, 3)}))),
        ("machines 3\nmax_cell_size 2\npart -2 : 0 2\n", 3,
         dict(machine_count=3, max_cell_size=2,
              parts=(Part(Fraction(-2), (-1, 1)),))),
        ("machines 3\nmax_cell_size 2\npart 1 : 1 2\npart 1e-4300 : 2 9\n",
         4, dict(machine_count=3, max_cell_size=2,
                 parts=(ONE_PART, Part(Fraction(1, 10 ** 4300), (1, 8))))),
    ], ids=["negative volume", "repeated machine", "self-pair",
            "SC/SN overlap", "max cell size 0", "machine count 1",
            "part machine out of range", "cohabit machine out of range",
            "negative volume and machine 0", "volume digits and range"])
    def test_parse_gives_the_instance_message(self, text, line, args):
        with pytest.raises(InstanceError) as built:
            Instance(**args)
        with pytest.raises(InstanceError) as parsed:
            parse_instance(text)
        assert built.value.line is None
        assert parsed.value.line == line
        assert str(parsed.value) == f"line {line}: {built.value}"


class TestSerialize:
    def test_canonical_golden(self):
        inst = Instance(
            4, 2,
            (Part(Fraction(1, 2), (0, 3, 1)), Part(Fraction(3), (2, 0))),
            cohabit=frozenset({(1, 3), (0, 2)}),
            separate=frozenset({(0, 1)}))
        assert serialize_instance(inst) == (
            "machines 4\n"
            "max_cell_size 2\n"
            "part 1/2 : 1 4 2\n"
            "part 3 : 3 1\n"
            "cohabit 1 3\n"
            "cohabit 2 4\n"
            "separate 1 2\n")

    def test_round_trip_golden(self):
        text = ("machines 4\nmax_cell_size 2\npart 1/2 : 1 4 2\n"
                "cohabit 1 3\nseparate 1 2\n")
        assert serialize_instance(parse_instance(text)) == text

    def test_round_trip_random(self):
        rng = random.Random(7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InstanceWarning)
            for _ in range(200):
                inst = random_instance(rng, constraints=True)
                again = parse_instance(serialize_instance(inst))
                assert again == inst

    def test_round_trip_generated_large(self):
        inst = generate_instance(50, 100, 7, 10, seed=3)
        assert parse_instance(serialize_instance(inst)) == inst


class TestGenerate:
    def test_deterministic(self):
        a = generate_instance(8, 20, 5, 6, seed=42)
        b = generate_instance(8, 20, 5, 6, seed=42)
        assert a == b
        assert a != generate_instance(8, 20, 5, 6, seed=43)

    def test_dimensions(self):
        inst = generate_instance(50, 100, 7, 10, seed=1)
        assert inst.machine_count == 50
        assert len(inst.parts) == 100
        assert inst.max_cell_size == 7
        assert inst.cohabit == frozenset() and inst.separate == frozenset()

    def test_routing_properties_bulk(self):
        # one big draw gives 10^4 routing samples
        inst = generate_instance(9, 10_000, 4, 7, seed=5)
        for part in inst.parts:
            assert 2 <= len(part.routing) <= 7
            assert all(0 <= v < 9 for v in part.routing)
            assert all(a != b for a, b in
                       zip(part.routing, part.routing[1:]))
            assert part.volume.denominator == 1
            assert 1 <= part.volume <= 10

    def test_argument_validation(self):
        with pytest.raises(InstanceError, match="at least 2"):
            generate_instance(1, 5, 2)
        with pytest.raises(InstanceError, match="part count"):
            generate_instance(4, 0, 2)
        with pytest.raises(InstanceError, match="routing length"):
            generate_instance(4, 5, 2, max_routing_len=1)

    def test_part_and_routing_limits(self):
        # the limits themselves are accepted on a small shop
        inst = generate_instance(5, 2, 2, MAX_ROUTING_LEN, seed=1)
        assert all(len(p.routing) <= MAX_ROUTING_LEN for p in inst.parts)
        with pytest.raises(InstanceError, match="part count .* exceeds "
                                                "the limit"):
            generate_instance(5, MAX_PARTS + 1, 2)
        with pytest.raises(InstanceError, match="routing length .* exceeds "
                                                "the limit"):
            generate_instance(5, 1, 2, MAX_ROUTING_LEN + 1)
        with pytest.raises(InstanceError, match="exceeds the limit"):
            generate_instance(5, 1, 2, 10 ** 9)

    def test_machine_count_limit(self):
        inst = generate_instance(MAX_MACHINES, 5, 3)
        assert inst.machine_count == MAX_MACHINES
        with pytest.raises(InstanceError, match="exceeds the limit"):
            generate_instance(MAX_MACHINES + 1, 5, 3)


@given(instances())
def test_serialize_parse_round_trip(inst):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InstanceWarning)
        assert parse_instance(serialize_instance(inst)) == inst


def test_vertex_groups_sorted_by_lowest_member():
    assert vertex_groups(7, [(4, 1), (5, 2), (2, 0), (6, 4)]) == \
        [[0, 2, 5], [1, 4, 6], [3]]
    assert vertex_groups(3, []) == [[0], [1], [2]]
