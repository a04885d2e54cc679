"""The paper's headline claims, end to end.

Each claim is a row of ``repro.reporting.fidelity``, which holds the
printed value, its tolerance and the reason for it; these tests name
the rows behind each claim of the abstract and of Section V.
"""


class TestAbstractClaims:
    """Claims from the abstract and introduction."""

    def test_dataset_scale(self, paper_rows):
        paper_rows.check("table1-total-*")

    def test_claim_15_to_4000x_worse_than_humans(self, paper_rows):
        paper_rows.check("table7-human-ratio-span")

    def test_claim_64_percent_ml_design(self, paper_rows):
        paper_rows.check("table4-ml-design-share")

    def test_claim_drivers_as_alert_as_non_av(self, paper_rows):
        paper_rows.check("fig10-mean-reaction-time")

    def test_claim_4x_worse_than_airplanes(self, paper_rows):
        paper_rows.check("table8-waymo-vs-airline")

    def test_claim_2_5x_better_than_surgical_robots(self, paper_rows):
        paper_rows.check("table8-waymo-vs-surgical-robot")


class TestSectionVClaims:
    """Claims from the statistical-analysis section."""

    def test_262_miles_per_disengagement(self, paper_rows):
        paper_rows.check("table7-miles-per-disengagement")

    def test_one_accident_per_127_disengagements(self, paper_rows):
        paper_rows.check("table6-disengagements-per-accident")

    def test_pooled_correlation_minus_087(self, paper_rows):
        paper_rows.check("fig8-pooled-*")

    def test_48_percent_automatic(self, paper_rows):
        paper_rows.check("table5-automatic-share")

    def test_waymo_reaction_time_correlation(self, paper_rows):
        paper_rows.check("fig11-waymo-rt-miles-*")

    def test_benz_reaction_time_correlation(self, paper_rows):
        paper_rows.check("fig11-mercedes-benz-rt-miles-*")

    def test_80_percent_accidents_below_10mph(self, paper_rows):
        paper_rows.check("fig12-below-10mph")

    def test_waymo_100x_better_dpm(self, paper_rows):
        paper_rows.check("fig4-waymo-advantage")
