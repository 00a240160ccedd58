"""Unit tests for the catalog: table/index registry and DBMS limits."""

import pytest

from repro.engine.catalog import Catalog, IndexDefinition
from repro.engine.schema import TableSchema
from repro.engine.table import Table
from repro.engine.types import SQLType
from repro.errors import CatalogError


def make_table(name="t", columns=(("a", SQLType.INTEGER),)):
    schema = TableSchema.build(name, list(columns))
    return Table(schema)


class TestTables:
    def test_create_and_lookup_case_insensitive(self):
        catalog = Catalog()
        catalog.create_table(make_table("Orders"))
        assert catalog.has_table("ORDERS")
        assert catalog.table("orders").name == "Orders"

    def test_duplicate_raises(self):
        catalog = Catalog()
        catalog.create_table(make_table())
        with pytest.raises(CatalogError):
            catalog.create_table(make_table())

    def test_drop(self):
        catalog = Catalog()
        catalog.create_table(make_table())
        catalog.drop_table("t")
        assert not catalog.has_table("t")

    def test_drop_missing_raises_unless_if_exists(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.drop_table("nope")
        catalog.drop_table("nope", if_exists=True)

    def test_unknown_lookup_raises(self):
        with pytest.raises(CatalogError):
            Catalog().table("missing")


class TestLimits:
    def test_max_columns_enforced(self):
        catalog = Catalog(max_columns=2)
        wide = make_table("w", [("a", SQLType.INTEGER),
                                ("b", SQLType.INTEGER),
                                ("c", SQLType.INTEGER)])
        with pytest.raises(CatalogError):
            catalog.create_table(wide)

    def test_max_name_length_enforced(self):
        catalog = Catalog(max_name_length=5)
        with pytest.raises(CatalogError):
            catalog.create_table(make_table("toolongname"))
        with pytest.raises(CatalogError):
            catalog.create_table(
                make_table("t", [("averylongcolumn", SQLType.INTEGER)]))


class TestIndexes:
    def test_create_find_drop(self):
        catalog = Catalog()
        catalog.create_table(Table.from_rows(
            TableSchema.build("t", [("a", SQLType.INTEGER),
                                    ("b", SQLType.INTEGER)]),
            [(1, 2), (3, 4)]))
        index = catalog.create_index("ix", "t", ["B", "a"])
        # a definition only: name, table, lower-cased columns in
        # declaration order
        assert index == IndexDefinition("ix", "t", ("b", "a"))
        assert dict(catalog.snapshot().indexes) == {"ix": index}
        assert catalog.index_names() == ["ix"]
        catalog.drop_index("ix")
        assert catalog.index_names() == []
        with pytest.raises(CatalogError):
            catalog.drop_index("ix")
        catalog.drop_index("ix", if_exists=True)

    def test_index_on_missing_column_raises(self):
        catalog = Catalog()
        catalog.create_table(make_table())
        with pytest.raises(CatalogError):
            catalog.create_index("ix", "t", ["zzz"])

    def test_duplicate_index_raises(self):
        catalog = Catalog()
        catalog.create_table(make_table())
        catalog.create_index("ix", "t", ["a"])
        with pytest.raises(CatalogError):
            catalog.create_index("ix", "t", ["a"])

    def test_drop_table_drops_its_indexes(self):
        catalog = Catalog()
        catalog.create_table(make_table())
        catalog.create_index("ix", "t", ["a"])
        catalog.drop_table("t")
        assert catalog.index_names() == []

    def test_replace_table_keeps_its_indexes(self):
        schema = TableSchema.build("t", [("a", SQLType.INTEGER)])
        catalog = Catalog()
        catalog.create_table(Table.from_rows(schema, [(1,)]))
        index = catalog.create_index("ix", "t", ["a"])
        catalog.replace_table(Table.from_rows(schema, [(1,), (2,)]))
        # nothing is digested from the rows, so DML leaves the
        # definition as it was
        assert catalog.snapshot().indexes["ix"] is index
