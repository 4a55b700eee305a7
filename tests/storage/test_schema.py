"""Unit tests for schemas, column definitions, and type validation."""

import pytest

from repro.errors import SchemaError
from repro.storage import ColumnDef, Schema, SqlType, tid_column


def sample_schema():
    return Schema(
        [
            ColumnDef("id", SqlType.INT, nullable=False),
            ColumnDef("name", SqlType.TEXT),
            ColumnDef("price", SqlType.FLOAT),
            ColumnDef("day", SqlType.DATE),
            tid_column("tid_self"),
        ],
        primary_key="id",
    )


class TestSchemaDefinition:
    def test_columns_order_preserved(self):
        schema = sample_schema()
        assert schema.column_names == ["id", "name", "price", "day", "tid_self"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([ColumnDef("a", SqlType.INT), ColumnDef("a", SqlType.TEXT)])

    def test_unknown_primary_key_rejected(self):
        with pytest.raises(SchemaError):
            Schema([ColumnDef("a", SqlType.INT)], primary_key="b")

    def test_invalid_column_name(self):
        with pytest.raises(SchemaError):
            ColumnDef("bad name", SqlType.INT)
        with pytest.raises(SchemaError):
            ColumnDef("", SqlType.INT)

    def test_tid_columns_flagged_and_separable(self):
        schema = sample_schema()
        assert schema.tid_column_names() == ["tid_self"]
        assert "tid_self" not in schema.business_column_names()

    def test_column_lookup(self):
        schema = sample_schema()
        assert schema.column("price").sql_type is SqlType.FLOAT
        assert schema.has_column("name")
        assert not schema.has_column("nope")
        with pytest.raises(SchemaError):
            schema.column("nope")

    def test_extended_with(self):
        schema = Schema([ColumnDef("a", SqlType.INT)], primary_key="a")
        extended = schema.extended_with([tid_column("tid_x")])
        assert extended.column_names == ["a", "tid_x"]
        assert extended.primary_key == "a"
        assert len(schema) == 1  # original untouched


def validate_row(schema, values):
    """One row through the batch validator, as a dict in schema order."""
    columns = schema.validate_columns([values])
    return {name: column[0] for name, column in zip(schema.column_names, columns)}


class TestRowValidation:
    def test_valid_row_filled_and_coerced(self):
        schema = sample_schema()
        row = validate_row(schema, {"id": 1, "name": "x", "price": 2})
        assert row == {
            "id": 1,
            "name": "x",
            "price": 2.0,
            "day": None,
            "tid_self": None,
        }
        assert isinstance(row["price"], float)

    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            validate_row(sample_schema(), {"id": 1, "wat": 2})

    def test_not_null_enforced(self):
        with pytest.raises(SchemaError):
            validate_row(sample_schema(), {"name": "x"})

    def test_type_mismatches(self):
        schema = sample_schema()
        with pytest.raises(SchemaError):
            validate_row(schema, {"id": "one"})
        with pytest.raises(SchemaError):
            validate_row(schema, {"id": 1, "name": 5})
        with pytest.raises(SchemaError):
            validate_row(schema, {"id": 1, "price": "free"})
        with pytest.raises(SchemaError):
            validate_row(schema, {"id": 1, "day": 20240101})

    def test_int_accepts_int_rejects_bool(self):
        schema = Schema([ColumnDef("n", SqlType.INT)])
        assert validate_row(schema, {"n": 5})["n"] == 5
        with pytest.raises(SchemaError):
            validate_row(schema, {"n": True})

    @pytest.mark.parametrize(
        "sql_type, name",
        [
            (SqlType.INT, "INT"),
            (SqlType.FLOAT, "FLOAT"),
            (SqlType.TEXT, "TEXT"),
            (SqlType.DATE, "DATE"),
        ],
    )
    def test_bool_refused_naming_the_column_type(self, sql_type, name):
        with pytest.raises(SchemaError, match=rf"^expected {name}\b.*got True$"):
            sql_type.validate(True)

    def test_insert_of_bool_names_the_column_type(self):
        from repro import Database

        db = Database()
        db.create_table("t", [("id", "INT"), ("label", "TEXT")], primary_key="id")
        with pytest.raises(SchemaError, match=r"^expected TEXT, got False$"):
            db.insert("t", {"id": 1, "label": False})
        assert db.table("t").row_count() == 0

    def test_float_accepts_int(self):
        schema = Schema([ColumnDef("x", SqlType.FLOAT)])
        assert validate_row(schema, {"x": 3})["x"] == 3.0

    def test_date_iso_string(self):
        schema = Schema([ColumnDef("d", SqlType.DATE)])
        assert validate_row(schema, {"d": "2014-07-01"})["d"] == "2014-07-01"


class TestColumnValidation:
    def test_batch_is_validated_and_coerced_per_column(self):
        class Name(str):
            pass

        schema = sample_schema()
        rows = [
            {"id": 1, "name": "a", "price": 2.5},
            {"id": 2, "name": Name("b"), "price": 3, "day": "2014-07-01"},
        ]
        columns = schema.validate_columns(rows)
        assert [list(c) for c in columns] == [
            [1, 2],
            ["a", "b"],
            [2.5, 3.0],
            [None, "2014-07-01"],
            [None, None],
        ]
        assert type(columns[2][1]) is float  # an int in a FLOAT column is coerced
        assert type(columns[1][1]) is Name  # a str subclass is accepted as is

    def test_batch_errors_are_the_per_value_errors(self):
        schema = sample_schema()
        good = {"id": 1, "name": "a"}
        for bad, message in [
            ({"id": 2, "price": "free"}, "expected FLOAT, got 'free'"),
            ({"id": None}, "column 'id' is NOT NULL"),
            ({"id": 2, "wat": 1}, r"unknown columns in row: \['wat'\]"),
        ]:
            with pytest.raises(SchemaError, match=message):
                schema.validate_columns([good, bad])
            with pytest.raises(SchemaError, match=message):
                validate_row(schema, bad)

    def test_empty_batch_gives_empty_columns(self):
        assert sample_schema().validate_columns([]) == [[]] * 5
