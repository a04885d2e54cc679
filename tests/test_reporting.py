"""Tests for the reporting layer: renderers and exhibit generators."""

import pytest

from repro.analysis.stats import boxplot_stats
from repro.reporting import figures_paper, tables_paper
from repro.reporting.experiments import EXPERIMENTS, run_experiment
from repro.reporting.figures import BoxSeries, FigureData, Series
from repro.reporting.tables import Table
from repro.taxonomy import FaultTag


class TestTableRenderer:
    def test_render_alignment(self):
        table = Table("T", ["a", "bb"], [["x", 1], ["yy", 22]])
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]

    def test_add_row_validates_width(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_none_renders_as_dash(self):
        table = Table("T", ["a"], [[None]])
        assert "-" in table.render()

    def test_column_and_row_lookup(self):
        table = Table("T", ["name", "value"],
                      [["x", 1], ["y", 2]])
        assert table.column("value") == [1, 2]
        assert table.row_for("y") == ["y", 2]
        assert table.row_for("zzz") is None

    def test_float_formatting(self):
        table = Table("T", ["v"], [[4.140e-05], [1234567.0], [0.565]])
        text = table.render()
        assert "4.140e-05" in text
        assert "0.565" in text


class TestFigureRenderer:
    def test_series_lookup(self):
        figure = FigureData("F", "title",
                            series=[Series("s", [1], [2])])
        assert figure.series_by_name("s").y == [2]
        with pytest.raises(KeyError):
            figure.series_by_name("missing")

    def test_box_lookup(self):
        box = BoxSeries("m", boxplot_stats([1, 2, 3]))
        figure = FigureData("F", "t", boxes=[box])
        assert figure.box_by_label("m").box.median == 2

    def test_render_contains_everything(self):
        figure = FigureData(
            "Figure X", "demo", xlabel="x", ylabel="y",
            series=[Series("s", [1.0, 2.0], [3.0, 4.0],
                           annotation="slope=1")],
            boxes=[BoxSeries("b", boxplot_stats([1.0]))],
            annotations=["headline"], notes=["footnote"])
        text = figure.render()
        for token in ("Figure X", "demo", "slope=1", "headline",
                      "footnote", "[box]", "[series]"):
            assert token in text


class TestPaperTables:
    def test_table1_totals(self, paper_rows):
        paper_rows.check("table1-total-*")

    def test_table1_waymo_row(self, paper_rows):
        paper_rows.check("table1-waymo-*")

    def test_table2_has_four_samples(self, db):
        table = tables_paper.table2(db)
        assert len(table.rows) == 4
        manufacturers = [row[0] for row in table.rows]
        assert manufacturers.count("Nissan") == 2
        categories = table.column("Category")
        assert "System" in categories and "ML/Design" in categories
        tags = table.column("Tag")
        assert "Environment" in tags and "Hang/Crash" in tags

    def test_table3_covers_all_tags(self, db):
        table = tables_paper.table3(db)
        assert len(table.rows) == len(FaultTag) == 13
        tags = table.column("Tag")
        for expected in ("Environment", "Computer System",
                         "Recognition System", "Planner", "Sensor",
                         "Network", "Design Bug", "Software",
                         "AV Controller", "Hang/Crash"):
            assert expected in tags

    def test_table4_rows_sum_to_100(self, db):
        table = tables_paper.table4(db)
        for row in table.rows:
            assert sum(row[1:]) == pytest.approx(100.0, abs=0.1)

    def test_table5_planned_rows(self, db):
        table = tables_paper.table5(db)
        assert table.row_for("Bosch")[3] == pytest.approx(100.0)
        assert table.row_for("GMCruise")[3] == pytest.approx(100.0)

    def test_table6_counts(self, db):
        table = tables_paper.table6(db)
        assert table.row_for("Waymo")[1] == 25
        assert table.row_for("Uber ATC")[3] is None

    def test_table7_structure(self, db):
        table = tables_paper.table7(db)
        assert len(table.rows) == 8
        waymo = table.row_for("Waymo")
        assert waymo[2] is not None  # APM computable
        assert table.row_for("Tesla")[2] is None

    def test_table8_four_rows(self, db):
        table = tables_paper.table8(db)
        assert [row[0] for row in table.rows] == [
            "Waymo", "Delphi", "Nissan", "GMCruise"]


class TestPaperFigures:
    def test_figure4_boxes(self, db):
        figure = figures_paper.figure4(db)
        assert len(figure.boxes) == 8
        waymo = figure.box_by_label("Waymo").box
        benz = figure.box_by_label("Mercedes-Benz").box
        assert waymo.median < benz.median / 100

    def test_figure5_fits_positive_slopes(self, db):
        figure = figures_paper.figure5(db)
        assert len(figure.series) == 8
        for series in figure.series:
            assert "slope=" in series.annotation
            assert series.y == sorted(series.y)  # cumulative counts

    def test_figure6_fractions(self, db):
        figure = figures_paper.figure6(db)
        assert any("Tesla" in a and "Unknown-T" in a
                   for a in figure.annotations)

    def test_figure7_boxes_by_year(self, db):
        figure = figures_paper.figure7(db)
        labels = {box.label for box in figure.boxes}
        assert {"Waymo 2014", "Waymo 2015", "Waymo 2016"} <= labels

    def test_figure8_correlation_annotation(self, db):
        figure = figures_paper.figure8(db)
        assert figure.annotations
        assert "pearsonr = -0.8" in figure.annotations[0]
        assert len(figure.series[0].x) > 100  # manufacturer-months

    def test_figure9_series(self, db):
        figure = figures_paper.figure9(db)
        assert {s.name for s in figure.series} >= {"Waymo", "Bosch"}

    def test_figure10_boxes_and_mean(self, db):
        figure = figures_paper.figure10(db)
        assert len(figure.boxes) == 6
        assert "overall mean reaction time" in figure.annotations[0]

    def test_figure11_fit_pairs(self, db):
        figure = figures_paper.figure11(db)
        names = {s.name for s in figure.series}
        assert names == {"Mercedes-Benz data", "Mercedes-Benz fit",
                         "Waymo data", "Waymo fit"}

    def test_figure12_three_panels(self, db):
        figure = figures_paper.figure12(db)
        assert len(figure.series) == 6  # data + fit per panel
        assert "relative speed < 10 mph" in figure.annotations[0]


class TestRegistry:
    def test_experiment_census(self):
        # Exactly the 19 paper exhibits: Tables I-VIII and Figs. 2-12.
        assert {e.experiment_id: e.kind for e in EXPERIMENTS.values()} == {
            **{f"table{i}": "table" for i in range(1, 9)},
            **{f"figure{i}": "figure" for i in range(2, 13)}}

    def test_run_experiment(self, db):
        exhibit = run_experiment("table6", db)
        assert "Table VI" in exhibit.render()

    def test_every_experiment_renders(self, db):
        for experiment_id in EXPERIMENTS:
            exhibit = run_experiment(experiment_id, db)
            assert exhibit.render().strip()
