"""Unit tests for schemas: object types, relations, lookups, inverses."""

import pytest

from repro.hin.errors import PathError, SchemaError
from repro.hin.schema import (
    PATH_MEMO_SIZE,
    NetworkSchema,
    ObjectType,
    RelationType,
)


def make_ap_schema():
    return NetworkSchema.from_spec(
        [("author", "A"), ("paper", "P")],
        [("writes", "author", "paper")],
    )


class TestObjectType:
    def test_fields(self):
        otype = ObjectType("author", "A")
        assert otype.name == "author"
        assert otype.code == "A"

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            ObjectType("", "A")

    def test_empty_code_rejected(self):
        with pytest.raises(SchemaError):
            ObjectType("author", "")

    def test_lowercase_code_rejected(self):
        with pytest.raises(SchemaError):
            ObjectType("author", "a")

    def test_equality_and_hash(self):
        assert ObjectType("author", "A") == ObjectType("author", "A")
        assert hash(ObjectType("author", "A")) == hash(ObjectType("author", "A"))
        assert ObjectType("author", "A") != ObjectType("paper", "P")


class TestRelationType:
    def test_endpoints(self):
        a, p = ObjectType("author", "A"), ObjectType("paper", "P")
        rel = RelationType("writes", a, p)
        assert rel.endpoints == (a, p)
        assert rel.source is a and rel.target is p

    def test_inverse_swaps_endpoints(self):
        a, p = ObjectType("author", "A"), ObjectType("paper", "P")
        rel = RelationType("writes", a, p)
        inv = rel.inverse()
        assert inv.source == p and inv.target == a
        assert inv.name == "writes^-1"

    def test_double_inverse_restores_name(self):
        a, p = ObjectType("author", "A"), ObjectType("paper", "P")
        rel = RelationType("writes", a, p)
        assert rel.inverse().inverse() == rel

    def test_self_relation_flag(self):
        a = ObjectType("author", "A")
        assert RelationType("knows", a, a).is_self_relation
        p = ObjectType("paper", "P")
        assert not RelationType("writes", a, p).is_self_relation

    def test_empty_name_rejected(self):
        a, p = ObjectType("author", "A"), ObjectType("paper", "P")
        with pytest.raises(SchemaError):
            RelationType("", a, p)


class TestNetworkSchema:
    def test_add_and_lookup_type(self):
        schema = NetworkSchema()
        otype = schema.add_object_type("author", "A")
        assert schema.object_type("author") is otype
        assert schema.object_type_by_code("A") is otype

    def test_default_code_is_first_letter(self):
        schema = NetworkSchema()
        otype = schema.add_object_type("paper")
        assert otype.code == "P"

    def test_duplicate_type_name_rejected(self):
        schema = NetworkSchema()
        schema.add_object_type("author", "A")
        with pytest.raises(SchemaError):
            schema.add_object_type("author", "B")

    def test_duplicate_code_rejected(self):
        schema = NetworkSchema()
        schema.add_object_type("author", "A")
        with pytest.raises(SchemaError):
            schema.add_object_type("affiliation", "A")

    def test_unknown_type_lookup_raises(self):
        schema = NetworkSchema()
        with pytest.raises(SchemaError):
            schema.object_type("ghost")
        with pytest.raises(SchemaError):
            schema.object_type_by_code("G")

    def test_add_relation_and_lookup(self):
        schema = make_ap_schema()
        rel = schema.relation("writes")
        assert rel.source.name == "author"
        assert rel.target.name == "paper"

    def test_inverse_relation_lookup(self):
        schema = make_ap_schema()
        inv = schema.relation("writes^-1")
        assert inv.source.name == "paper"
        assert inv.target.name == "author"

    def test_unknown_relation_raises(self):
        schema = make_ap_schema()
        with pytest.raises(SchemaError):
            schema.relation("reads")
        with pytest.raises(SchemaError):
            schema.relation("reads^-1")

    def test_duplicate_relation_rejected(self):
        schema = make_ap_schema()
        with pytest.raises(SchemaError):
            schema.add_relation("writes", "author", "paper")

    def test_relation_with_unknown_endpoint_rejected(self):
        schema = make_ap_schema()
        with pytest.raises(SchemaError):
            schema.add_relation("cites", "paper", "ghost")

    def test_relations_between_includes_inverse(self):
        schema = make_ap_schema()
        forward = schema.relations_between("author", "paper")
        backward = schema.relations_between("paper", "author")
        assert [r.name for r in forward] == ["writes"]
        assert [r.name for r in backward] == ["writes^-1"]

    def test_relation_between_unique(self):
        schema = make_ap_schema()
        assert schema.relation_between("author", "paper").name == "writes"

    def test_relation_between_none_raises(self):
        schema = NetworkSchema.from_spec(
            [("author", "A"), ("paper", "P")], []
        )
        with pytest.raises(SchemaError):
            schema.relation_between("author", "paper")

    def test_relation_between_ambiguous_raises(self):
        schema = NetworkSchema.from_spec(
            [("author", "A"), ("paper", "P")],
            [
                ("writes", "author", "paper"),
                ("reviews", "author", "paper"),
            ],
        )
        with pytest.raises(SchemaError):
            schema.relation_between("author", "paper")

    def test_has_helpers(self):
        schema = make_ap_schema()
        assert schema.has_object_type("author")
        assert not schema.has_object_type("ghost")
        assert schema.has_relation("writes")
        assert schema.has_relation("writes^-1")
        assert not schema.has_relation("reads")

    def test_heterogeneous_flag(self):
        assert make_ap_schema().is_heterogeneous
        homogeneous = NetworkSchema.from_spec([("page", "W")], [])
        assert not homogeneous.is_heterogeneous
        # One type but two relations is heterogeneous per Definition 1.
        multi_rel = NetworkSchema.from_spec(
            [("page", "W")],
            [("links", "page", "page"), ("redirects", "page", "page")],
        )
        assert multi_rel.is_heterogeneous

    def test_contains_and_iter(self):
        schema = make_ap_schema()
        assert "author" in schema
        assert "ghost" not in schema
        assert [t.name for t in schema] == ["author", "paper"]

    def test_object_types_and_relations_listing(self):
        schema = make_ap_schema()
        assert [t.code for t in schema.object_types] == ["A", "P"]
        assert [r.name for r in schema.relations] == ["writes"]


class TestToDot:
    def test_contains_types_and_relations(self):
        schema = make_ap_schema()
        dot = schema.to_dot()
        assert dot.startswith("digraph schema {")
        assert '"author" [label="author (A)"];' in dot
        assert '"author" -> "paper" [label="writes"];' in dot
        assert dot.rstrip().endswith("}")

    def test_custom_name(self):
        dot = make_ap_schema().to_dot(name="bib")
        assert dot.startswith("digraph bib {")


def make_apc_schema():
    return NetworkSchema.from_spec(
        [("author", "A"), ("paper", "P"), ("conference", "C")],
        [
            ("writes", "author", "paper"),
            ("published_in", "paper", "conference"),
        ],
    )


class TestPathMemo:
    def test_string_specs_parse_once(self):
        schema = make_apc_schema()
        assert schema.path("APC") is schema.path("APC")

    def test_new_relation_makes_a_parsed_path_ambiguous(self):
        schema = make_apc_schema()
        assert schema.path("APC").code() == "APC"
        schema.add_relation("reviews", "author", "paper")
        with pytest.raises(PathError, match="ambiguous") as raised:
            schema.path("APC")
        assert isinstance(raised.value.__cause__, SchemaError)

    def test_new_type_clears_the_memo(self):
        schema = make_apc_schema()
        first = schema.path("APC")
        schema.add_object_type("venue", "V")
        assert schema.path("APC") is not first
        assert schema.path("APC").code() == "APC"

    def test_parse_errors_are_not_stored(self):
        schema = make_apc_schema()
        for _ in range(2):
            with pytest.raises(PathError):
                schema.path("AC")
        assert schema._parse_code.cache_info().currsize == 0

    def test_memo_is_bounded(self):
        schema = make_apc_schema()
        for repeat in range(1, PATH_MEMO_SIZE + 20):
            schema.path("AP" * repeat)
        assert schema._parse_code.cache_info().currsize == PATH_MEMO_SIZE
