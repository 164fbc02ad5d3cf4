"""The SalesCube of the paper's Section 2 example.

Dimensions (with the hierarchies the paper names):

* SalesPerson → Team
* Store → City → State → Region → Country
* Date → Month → Quarter → Year (one year, 1991)
* Product → Category

The MDX example from [MS] quoted in the paper —
``NEST({Venkatrao, Netz}, (USA_North.CHILDREN, USA_South, Japan)) …`` —
splits against this schema into exactly six component group-by queries, as
the paper's Section 2 derives.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..engine.database import Database
from ..schema.dimension import Dimension
from ..schema.star import StarSchema
from .generator import generate_fact_columns

#: The paper's Section 2 example, verbatim structure.
SECTION2_MDX = """
    NEST ({Venkatrao, Netz},
      (USA_North.CHILDREN, USA_South, Japan))
    on COLUMNS
    {Qtr1.CHILDREN, Qtr2, Qtr3, Qtr4.CHILDREN} on ROWS
    CONTEXT SalesCube
    FILTER (Sales, [1991], Products.All)
"""

_MONTHS = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
]

_STATES = [
    ("Wisconsin", "USA_North"),
    ("Minnesota", "USA_North"),
    ("Illinois", "USA_North"),
    ("Texas", "USA_South"),
    ("Florida", "USA_South"),
    ("Kanto", "Japan_Main"),
    ("Kansai", "Japan_Main"),
]

_CITIES = [
    ("Madison", "Wisconsin"), ("Milwaukee", "Wisconsin"),
    ("Minneapolis", "Minnesota"), ("St_Paul", "Minnesota"),
    ("Chicago", "Illinois"), ("Springfield", "Illinois"),
    ("Austin", "Texas"), ("Houston", "Texas"),
    ("Miami", "Florida"), ("Orlando", "Florida"),
    ("Tokyo", "Kanto"), ("Yokohama", "Kanto"),
    ("Osaka", "Kansai"), ("Kyoto", "Kansai"),
]

_CATEGORIES = {
    "Drink": ["Cola", "Juice", "Beer", "Milk"],
    "Food": ["Bread", "Cheese", "Pasta", "Rice"],
    "Non_Consumable": ["Soap", "Paper", "Batteries", "Bulbs"],
}


def _time_dimension() -> Dimension:
    n_dates = 360  # 30 synthetic dates per month
    dates = [f"D{i + 1:03d}" for i in range(n_dates)]
    date_parents = np.arange(n_dates, dtype=np.int64) // 30
    month_parents = np.arange(12, dtype=np.int64) // 3
    quarter_parents = np.zeros(4, dtype=np.int64)
    return Dimension(
        name="Time",
        level_names=("Date", "Month", "Quarter", "Year"),
        parents=[date_parents, month_parents, quarter_parents],
        member_names=[
            dates,
            _MONTHS,
            ["Qtr1", "Qtr2", "Qtr3", "Qtr4"],
            ["1991"],
        ],
    )


def _store_dimension() -> Dimension:
    countries = ["USA", "Japan"]
    regions = ["USA_North", "USA_South", "Japan_Main"]
    region_parents = np.array([0, 0, 1], dtype=np.int64)
    state_names = [name for name, _region in _STATES]
    state_parents = np.array(
        [regions.index(region) for _name, region in _STATES], dtype=np.int64
    )
    city_names = [name for name, _state in _CITIES]
    city_parents = np.array(
        [state_names.index(state) for _name, state in _CITIES], dtype=np.int64
    )
    n_stores = len(city_names) * 2
    store_names = [f"Store{i + 1:02d}" for i in range(n_stores)]
    store_parents = np.arange(n_stores, dtype=np.int64) // 2
    return Dimension(
        name="Store",
        level_names=("Store", "City", "State", "Region", "Country"),
        parents=[store_parents, city_parents, state_parents, region_parents],
        member_names=[store_names, city_names, state_names, regions, countries],
    )


def _product_dimension() -> Dimension:
    categories = list(_CATEGORIES)
    products: List[str] = []
    parents: List[int] = []
    for c, category in enumerate(categories):
        for product in _CATEGORIES[category]:
            products.append(product)
            parents.append(c)
    return Dimension(
        name="Products",
        level_names=("Product", "Category"),
        parents=[np.asarray(parents, dtype=np.int64)],
        member_names=[products, categories],
    )


def _salesperson_dimension() -> Dimension:
    people = ["Venkatrao", "Netz", "Smith", "Jones"]
    teams = ["TeamEast", "TeamWest"]
    parents = np.array([0, 0, 1, 1], dtype=np.int64)
    return Dimension(
        name="SalesPerson",
        level_names=("SalesPerson", "Team"),
        parents=[parents],
        member_names=[people, teams],
    )


def build_sales_schema() -> StarSchema:
    """The SalesCube star schema of the paper's Section 2."""
    return StarSchema(
        "SalesCube",
        dimensions=[
            _salesperson_dimension(),
            _store_dimension(),
            _time_dimension(),
            _product_dimension(),
        ],
        measure="Sales",
    )


def build_sales_database(
    n_rows: int = 20_000,
    seed: int = 7,
    page_size: int = 512,
    materialized: Optional[List[str]] = None,
) -> Database:
    """A loaded SalesCube database with a few useful precomputed group-bys.

    Level vectors are given numerically because this schema's dimension
    names are words, not single letters (the paper's prime notation only
    suits one-letter names).
    """
    schema = build_sales_schema()
    db = Database(schema, page_size=page_size)
    db.load_base(
        name="WholeSalesData",
        columns=generate_fact_columns(schema, n_rows, seed=seed),
    )
    # (SalesPerson, City, Month, Category) — fine enough for every component
    # query of the Section 2 example.
    db.materialize([0, 1, 1, 1], name="sales_city_month")
    # (SalesPerson, State, Month, ALL) — coarser, answers state-level asks.
    db.materialize([0, 2, 1, 2], name="sales_state_month")
    # (Team, Region, Quarter, ALL) — a heavily aggregated summary.
    db.materialize([1, 3, 2, 2], name="sales_region_quarter")
    db.index_all_dimensions(
        "WholeSalesData", dim_names=["SalesPerson", "Store", "Time"]
    )
    return db
