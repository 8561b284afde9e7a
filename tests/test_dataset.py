"""Manifest parsing and CSV ingestion.

Everything here runs against small CSV files written into tmp_path, with
expected matrices spelled out row by row.  The strictness contract is as
much under test as the happy path: unknown keys, duplicate columns, bad
cells and impossible splits must all fail loudly, while missing cells are
the one tolerated defect (dropped and counted).
"""

import dataclasses
import json

import numpy as np
import pytest

from outreg import OneHotGroup, TargetTransform
from outreg.evalharness import (Dataset, IngestionError, ManifestError,
                                dataset_from_arrays, load_dataset,
                                load_manifest)

BASIC_CSV = "a,b,t\n" + "".join(
    f"{i},{10 * i},{100 * i}\n" for i in range(1, 9)
)

WIND_CSV = """day,wind,rain,t
1,NW,0.0,5
2,NE,1.5,6
3,S,2.0,7
4,CV,0.5,8
5,NE,3.0,9
6,NW,1.0,10
"""


def write_dataset(tmp_path, csv_text=BASIC_CSV, overrides=None,
                  csv_name="data.csv", drop_keys=()):
    (tmp_path / csv_name).write_text(csv_text)
    manifest = {
        "csv_path": csv_name,
        "feature_columns": ["a", "b"],
        "target_column": "t",
        "split": {"train_fraction": 0.75},
    }
    manifest.update(overrides or {})
    for key in drop_keys:
        manifest.pop(key, None)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


class TestManifest:
    def test_minimal_manifest_defaults(self, tmp_path):
        manifest = load_manifest(write_dataset(tmp_path))
        assert manifest.name == "data"  # csv stem
        assert manifest.feature_columns == ("a", "b")
        assert manifest.target_column == "t"
        assert manifest.categorical_groups == ()
        assert manifest.target_transform is TargetTransform.NONE
        assert manifest.clip_negative_predictions is False
        assert manifest.train_fraction == 0.75
        assert manifest.reverse_order is False
        assert manifest.delimiter == ","

    def test_explicit_name_wins(self, tmp_path):
        path = write_dataset(tmp_path, overrides={"name": "station-one"})
        assert load_manifest(path).name == "station-one"

    def test_csv_path_resolves_next_to_manifest(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        path = write_dataset(sub)
        assert load_manifest(path).csv_path == (sub / "data.csv").resolve()

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_dataset(tmp_path, overrides={"surprise": 1})
        with pytest.raises(ManifestError, match="unknown keys.*surprise"):
            load_manifest(path)

    def test_missing_required_key_rejected(self, tmp_path):
        path = write_dataset(tmp_path, drop_keys=("split",))
        with pytest.raises(ManifestError, match="missing required key 'split'"):
            load_manifest(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError, match="not valid JSON"):
            load_manifest(path)

    def test_duplicate_feature_columns_rejected(self, tmp_path):
        path = write_dataset(tmp_path,
                             overrides={"feature_columns": ["a", "a"]})
        with pytest.raises(ManifestError, match="duplicates"):
            load_manifest(path)

    def test_target_in_features_rejected(self, tmp_path):
        path = write_dataset(tmp_path,
                             overrides={"feature_columns": ["a", "t"]})
        with pytest.raises(ManifestError, match="must not appear"):
            load_manifest(path)

    def test_unknown_transform_rejected(self, tmp_path):
        path = write_dataset(tmp_path,
                             overrides={"target_transform": "sqrt"})
        with pytest.raises(ManifestError, match="unknown target_transform"):
            load_manifest(path)

    def test_train_fraction_bounds(self, tmp_path):
        for bad in (0.0, 1.0, -0.2):
            path = write_dataset(tmp_path,
                                 overrides={"split": {"train_fraction": bad}})
            with pytest.raises(ManifestError, match="train_fraction"):
                load_manifest(path)

    def test_split_needs_both_ranges(self, tmp_path):
        path = write_dataset(tmp_path,
                             overrides={"split": {"train_range": [0, 6]}})
        with pytest.raises(ManifestError, match="both train_range and test_range"):
            load_manifest(path)

    def test_unknown_split_key_rejected(self, tmp_path):
        path = write_dataset(
            tmp_path, overrides={"split": {"train_fraction": 0.5, "jitter": 1}})
        with pytest.raises(ManifestError, match="unknown keys"):
            load_manifest(path)

    def test_reverse_with_ranges_rejected(self, tmp_path):
        path = write_dataset(
            tmp_path,
            overrides={"reverse_order": True,
                       "split": {"train_range": [0, 6], "test_range": [6, 8]}})
        with pytest.raises(ManifestError, match="reverse_order"):
            load_manifest(path)

    def test_multi_character_delimiter_rejected(self, tmp_path):
        path = write_dataset(tmp_path, overrides={"delimiter": ",,"})
        with pytest.raises(ManifestError, match="single character"):
            load_manifest(path)

    def test_categorical_column_must_be_a_feature(self, tmp_path):
        path = write_dataset(
            tmp_path,
            overrides={"categorical_groups": [
                {"column": "wind", "categories": ["NW"]}]})
        with pytest.raises(ManifestError, match="not in feature_columns"):
            load_manifest(path)

    def test_duplicate_categories_rejected(self, tmp_path):
        path = write_dataset(
            tmp_path,
            overrides={"categorical_groups": [
                {"column": "a", "categories": ["x", "x"]}]})
        with pytest.raises(ManifestError, match="duplicate categories"):
            load_manifest(path)


class TestSplitting:
    def test_fraction_split_counts(self, tmp_path):
        data = load_dataset(load_manifest(write_dataset(tmp_path)))
        assert data.train_inputs.shape == (6, 2)
        assert data.test_inputs.shape == (2, 2)
        np.testing.assert_array_equal(data.train_target, np.arange(1, 7) * 100)
        np.testing.assert_array_equal(data.test_target, [700.0, 800.0])

    def test_fraction_rounds_half_to_even(self, tmp_path):
        """round(0.5 * 5) rounds 2.5 down to 2 under banker's rounding."""
        csv_text = "a,b,t\n" + "".join(f"{i},{i},{i}\n" for i in range(5))
        path = write_dataset(tmp_path, csv_text=csv_text,
                             overrides={"split": {"train_fraction": 0.5}})
        data = load_dataset(load_manifest(path))
        assert data.train_inputs.shape[0] == 2
        assert data.test_inputs.shape[0] == 3

    def test_fraction_clamped_to_leave_both_sides(self, tmp_path):
        csv_text = "a,b,t\n" + "".join(f"{i},{i},{i}\n" for i in range(4))
        for fraction, n_train in ((0.01, 1), (0.99, 3)):
            path = write_dataset(
                tmp_path, csv_text=csv_text,
                overrides={"split": {"train_fraction": fraction}})
            data = load_dataset(load_manifest(path))
            assert data.train_inputs.shape[0] == n_train

    def test_explicit_ranges(self, tmp_path):
        path = write_dataset(
            tmp_path,
            overrides={"split": {"train_range": [0, 5], "test_range": [5, 8]}})
        data = load_dataset(load_manifest(path))
        np.testing.assert_array_equal(data.train_target_raw,
                                      [100, 200, 300, 400, 500])
        np.testing.assert_array_equal(data.test_target_raw, [600, 700, 800])

    def test_integer_range_bounds_load_unchanged(self, tmp_path):
        path = write_dataset(
            tmp_path,
            overrides={"split": {"train_range": [0, 6], "test_range": [6, 8]}})
        manifest = load_manifest(path)
        assert manifest.train_range == (0, 6)
        assert manifest.test_range == (6, 8)
        assert all(type(b) is int for b in manifest.train_range + manifest.test_range)
        assert manifest.train_fraction is None

    def test_test_block_may_come_first(self, tmp_path):
        path = write_dataset(
            tmp_path,
            overrides={"split": {"train_range": [3, 8], "test_range": [0, 3]}})
        data = load_dataset(load_manifest(path))
        np.testing.assert_array_equal(data.test_target_raw, [100, 200, 300])
        np.testing.assert_array_equal(data.train_target_raw,
                                      [400, 500, 600, 700, 800])

    def test_ranges_must_partition_rows(self, tmp_path):
        for train, test in (([0, 4], [5, 8]),   # gap at row 4
                            ([0, 5], [4, 8]),   # overlap at row 4
                            ([0, 4], [4, 7])):  # row 7 unused
            path = write_dataset(
                tmp_path,
                overrides={"split": {"train_range": train,
                                     "test_range": test}})
            with pytest.raises(ManifestError, match="partition"):
                load_dataset(load_manifest(path))

    def test_range_beyond_data_rejected(self, tmp_path):
        path = write_dataset(
            tmp_path,
            overrides={"split": {"train_range": [0, 6], "test_range": [6, 9]}})
        with pytest.raises(ManifestError, match="only 8 usable rows"):
            load_dataset(load_manifest(path))

    def test_reverse_order_trains_on_late_rows(self, tmp_path):
        path = write_dataset(tmp_path,
                             overrides={"reverse_order": True,
                                        "split": {"train_fraction": 0.75}})
        data = load_dataset(load_manifest(path))
        np.testing.assert_array_equal(data.train_target_raw,
                                      [800, 700, 600, 500, 400, 300])
        np.testing.assert_array_equal(data.test_target_raw, [200, 100])
        np.testing.assert_array_equal(data.train_inputs[:, 0],
                                      [8, 7, 6, 5, 4, 3])


class TestIngestion:
    def test_passthrough_with_no_encoding_or_transform(self, tmp_path):
        data = load_dataset(load_manifest(write_dataset(tmp_path)))
        np.testing.assert_array_equal(
            np.vstack([data.train_inputs, data.test_inputs]),
            np.column_stack([np.arange(1, 9), np.arange(1, 9) * 10]))
        np.testing.assert_array_equal(data.train_target,
                                      data.train_target_raw)
        assert data.feature_names == ("a", "b")
        assert data.dropped_rows == 0

    def test_missing_cells_drop_rows_and_count(self, tmp_path):
        csv_text = ("a,b,t\n"
                    "1,10,100\n"
                    "2,,200\n"      # missing feature
                    "3,30,\n"       # missing target
                    "4,40,400\n"
                    "5,50,500\n")
        path = write_dataset(tmp_path, csv_text=csv_text,
                             overrides={"split": {"train_fraction": 0.67}})
        data = load_dataset(load_manifest(path))
        assert data.dropped_rows == 2
        np.testing.assert_array_equal(
            np.concatenate([data.train_target_raw, data.test_target_raw]),
            [100.0, 400.0, 500.0])

    def test_blank_lines_are_not_counted_as_dropped(self, tmp_path):
        csv_text = "a,b,t\n1,10,100\n\n2,20,200\n\n3,30,300\n"
        path = write_dataset(tmp_path, csv_text=csv_text,
                             overrides={"split": {"train_fraction": 0.67}})
        data = load_dataset(load_manifest(path))
        assert data.dropped_rows == 0
        assert data.train_inputs.shape[0] + data.test_inputs.shape[0] == 3

    def test_short_row_counts_as_missing(self, tmp_path):
        csv_text = "a,b,t\n1,10,100\n2,20\n3,30,300\n"
        path = write_dataset(tmp_path, csv_text=csv_text,
                             overrides={"split": {"train_fraction": 0.5}})
        data = load_dataset(load_manifest(path))
        assert data.dropped_rows == 1

    def test_unused_columns_never_drop_rows(self, tmp_path):
        """A hole in a column the manifest does not use is irrelevant."""
        csv_text = "a,b,junk,t\n1,10,,100\n2,20,x,200\n3,30,,300\n"
        path = write_dataset(tmp_path, csv_text=csv_text,
                             overrides={"split": {"train_fraction": 0.67}})
        data = load_dataset(load_manifest(path))
        assert data.dropped_rows == 0

    def test_unparseable_cell_reports_file_and_line(self, tmp_path):
        csv_text = "a,b,t\n1,10,100\n2,oops,200\n3,30,300\n"
        path = write_dataset(tmp_path, csv_text=csv_text)
        with pytest.raises(IngestionError, match=r"line 3"):
            load_dataset(load_manifest(path))

    def test_first_bad_cell_in_feature_order_is_reported(self, tmp_path):
        for bad_row, reported in (("oops_a,oops_b,200", "oops_a"),
                                  ("2,oops_b,oops_t", "oops_b")):
            csv_text = f"a,b,t\n1,10,100\n{bad_row}\n3,30,300\n"
            path = write_dataset(tmp_path, csv_text=csv_text)
            with pytest.raises(IngestionError,
                               match=rf"line 3: .*'{reported}'$"):
                load_dataset(load_manifest(path))

    def test_first_bad_line_is_reported(self, tmp_path):
        csv_text = "a,b,t\n1,10,100\n2,oops,200\n3,30,300\n4,oops,400\n"
        path = write_dataset(tmp_path, csv_text=csv_text)
        with pytest.raises(IngestionError, match=r"line 3: "):
            load_dataset(load_manifest(path))

    def test_missing_cell_drops_a_row_with_a_bad_cell(self, tmp_path):
        """Missing cells are checked first, so the bad cell is never parsed."""
        csv_text = "a,b,t\n1,10,100\n2,,oops\n3,30,300\n4,40,400\n"
        path = write_dataset(tmp_path, csv_text=csv_text,
                             overrides={"split": {"train_fraction": 0.67}})
        data = load_dataset(load_manifest(path))
        assert data.dropped_rows == 1
        np.testing.assert_array_equal(
            np.concatenate([data.train_target_raw, data.test_target_raw]),
            [100.0, 300.0, 400.0])

    def test_nan_cell_rejected(self, tmp_path):
        csv_text = "a,b,t\n1,10,100\n2,nan,200\n3,30,300\n"
        path = write_dataset(tmp_path, csv_text=csv_text)
        with pytest.raises(IngestionError, match="non-finite"):
            load_dataset(load_manifest(path))

    def test_whitespace_in_cells_tolerated(self, tmp_path):
        csv_text = "a, b ,t\n 1 , 10 , 100 \n2,20,200\n"
        path = write_dataset(tmp_path, csv_text=csv_text,
                             overrides={"split": {"train_fraction": 0.5}})
        data = load_dataset(load_manifest(path))
        np.testing.assert_array_equal(data.train_inputs, [[1.0, 10.0]])

    def test_custom_delimiter(self, tmp_path):
        csv_text = "a;b;t\n1;10;100\n2;20;200\n"
        path = write_dataset(tmp_path, csv_text=csv_text,
                             overrides={"delimiter": ";",
                                        "split": {"train_fraction": 0.5}})
        data = load_dataset(load_manifest(path))
        np.testing.assert_array_equal(data.test_inputs, [[2.0, 20.0]])

    def test_missing_column_rejected(self, tmp_path):
        path = write_dataset(tmp_path,
                             overrides={"feature_columns": ["a", "ghost"]})
        with pytest.raises(IngestionError, match="'ghost' not found"):
            load_dataset(load_manifest(path))

    def test_duplicate_header_rejected(self, tmp_path):
        csv_text = "a,a,t\n1,2,3\n4,5,6\n"
        path = write_dataset(tmp_path, csv_text=csv_text,
                             overrides={"feature_columns": ["a"]})
        with pytest.raises(IngestionError, match="appears 2 times"):
            load_dataset(load_manifest(path))

    def test_empty_file_rejected(self, tmp_path):
        path = write_dataset(tmp_path, csv_text="")
        with pytest.raises(IngestionError, match="empty"):
            load_dataset(load_manifest(path))

    def test_missing_csv_rejected(self, tmp_path):
        path = write_dataset(tmp_path)
        (tmp_path / "data.csv").unlink()
        with pytest.raises(IngestionError, match="not found"):
            load_dataset(load_manifest(path))

    def test_too_few_usable_rows_rejected(self, tmp_path):
        csv_text = "a,b,t\n1,10,100\n2,,200\n3,,300\n"
        path = write_dataset(tmp_path, csv_text=csv_text)
        with pytest.raises(IngestionError, match="only 1 usable"):
            load_dataset(load_manifest(path))


class TestCategoricalIngestion:
    def wind_manifest(self, tmp_path, **overrides):
        settings = {
            "feature_columns": ["day", "wind", "rain"],
            "categorical_groups": [
                {"column": "wind", "categories": ["NW", "NE", "S", "CV"]}],
            "split": {"train_fraction": 0.67},
        }
        settings.update(overrides)
        return write_dataset(tmp_path, csv_text=WIND_CSV, overrides=settings)

    def test_expansion_in_feature_order(self, tmp_path):
        data = load_dataset(load_manifest(self.wind_manifest(tmp_path)))
        assert data.feature_names == ("day", "wind=NW", "wind=NE", "wind=S",
                                      "wind=CV", "rain")
        np.testing.assert_array_equal(
            data.train_inputs[0], [1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            data.train_inputs[1], [2.0, 0.0, 1.0, 0.0, 0.0, 1.5])

    def test_group_records_its_columns(self, tmp_path):
        data = load_dataset(load_manifest(self.wind_manifest(tmp_path)))
        assert len(data.onehot_groups) == 1
        group = data.onehot_groups[0]
        assert group.column_indices == (1, 2, 3, 4)
        assert group.category_labels == ("NW", "NE", "S", "CV")
        assert data.indicator_columns == (1, 2, 3, 4)

    def test_unknown_label_rejected(self, tmp_path):
        path = self.wind_manifest(
            tmp_path,
            categorical_groups=[{"column": "wind",
                                 "categories": ["NW", "NE"]}])
        with pytest.raises(IngestionError, match="'wind'"):
            load_dataset(load_manifest(path))

    def test_all_features_categorical(self, tmp_path):
        path = self.wind_manifest(tmp_path, feature_columns=["wind"])
        data = load_dataset(load_manifest(path))
        assert data.train_inputs.shape[1] == 4
        np.testing.assert_array_equal(data.train_inputs.sum(axis=1),
                                      np.ones(4))


class TestTargetHandling:
    def test_transform_applied_and_raw_kept(self, tmp_path):
        csv_text = "a,b,t\n1,1,10\n2,2,100\n3,3,1000\n4,4,10\n"
        path = write_dataset(tmp_path, csv_text=csv_text,
                             overrides={"target_transform": "log10",
                                        "split": {"train_fraction": 0.75}})
        data = load_dataset(load_manifest(path))
        np.testing.assert_array_equal(data.train_target, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(data.train_target_raw,
                                      [10.0, 100.0, 1000.0])

    def test_transform_domain_violation_mentions_target(self, tmp_path):
        csv_text = "a,b,t\n1,1,10\n2,2,0\n3,3,100\n"
        path = write_dataset(tmp_path, csv_text=csv_text,
                             overrides={"target_transform": "natural-log"})
        with pytest.raises(IngestionError, match="target column"):
            load_dataset(load_manifest(path))

    def test_clip_flag_carried_through(self, tmp_path):
        path = write_dataset(tmp_path,
                             overrides={"clip_negative_predictions": True})
        data = load_dataset(load_manifest(path))
        assert data.clip_negative_predictions is True


class TestDatasetFromArrays:
    @pytest.mark.parametrize("cols, message", [
        ((5, 6), r"one-hot columns \[5, 6\] fall outside the 3 inputs"),
        ((2, 3), r"one-hot columns \[2, 3\] fall outside the 3 inputs"),
    ], ids=["past-the-inputs", "one-past-the-last"])
    def test_groups_outside_the_inputs_rejected(self, cols, message):
        """Caught where the Dataset is built, before a run scales them."""
        group = OneHotGroup(column_indices=cols, category_labels=("a", "b"))
        X = np.zeros((4, 3))
        with pytest.raises(ValueError, match=message):
            dataset_from_arrays(X, X, np.ones(4), np.ones(4), onehot_groups=(group,))

    def test_wraps_and_transforms(self):
        data = dataset_from_arrays(
            [[1.0], [.5]], [[2.0]], [1.0, np.e], [np.e ** 2],
            target_transform=TargetTransform.NATURAL_LOG)
        assert isinstance(data, Dataset)
        np.testing.assert_allclose(data.train_target, [0.0, 1.0],
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(data.test_target, [2.0], rtol=0,
                                   atol=1e-14)
        np.testing.assert_array_equal(data.train_target_raw, [1.0, np.e])
        assert data.feature_names == ("x0",)
        assert data.dropped_rows == 0

    @pytest.mark.parametrize("arrays, message", [
        ((10, 10, 10, 11), "test_target has 11 values for 10 test rows"),
        ((10, 10, 10, 9), "test_target has 9 values for 10 test rows"),
        ((10, 10, 9, 10), "train_target has 9 values for 10 train rows"),
        ((10, 0, 10, 2), "test_target has 2 values for 0 test rows"),
    ], ids=["test-target-longer", "test-target-shorter", "train-target-shorter",
            "no-test-rows"])
    def test_targets_one_value_per_row(self, arrays, message):
        """Refused when built: a longer test target once went into the
        report's MAD reference, a shorter one failed after CV and training."""
        n_train, n_test, m_train, m_test = arrays
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataset_from_arrays(np.zeros((n_train, 2)), np.zeros((n_test, 2)),
                                np.ones(m_train), np.ones(m_test))

    @pytest.mark.parametrize("n_train, n_test, part", [(0, 4, "train"), (10, 0, "test")],
                             ids=["train", "test"])
    def test_a_part_without_rows_rejected(self, n_train, n_test, part):
        """Refused when built, naming the part, not later by the scaler
        (train) or by ``r_outl`` (test) in a message that names neither."""
        with pytest.raises(ValueError, match=f"^{part}_inputs has no rows$"):
            dataset_from_arrays(np.zeros((n_train, 2)), np.zeros((n_test, 2)),
                                np.ones(n_train), np.ones(n_test))

    @pytest.mark.parametrize("field, value, message", [
        ("train_inputs", np.zeros(10), r"train_inputs must be 2-D, got shape \(10,\)"),
        ("test_inputs", np.zeros((4, 3)), "test_inputs has 3 columns, expected 2"),
        ("test_inputs", np.full((4, 2), np.nan), "test_inputs contains non-finite entries"),
        ("train_target", np.ones((10, 1)), r"train_target must be 1-D, got shape \(10, 1\)"),
        ("test_target_raw", np.ones(5), "test_target_raw has 5 values for 4 test rows"),
        ("train_target_raw", np.full(10, np.inf),
         "train_target_raw contains non-finite entries"),
    ], ids=["train-inputs-1d", "test-inputs-columns", "test-inputs-nan", "train-target-2d",
            "test-target-raw-longer", "train-target-raw-inf"])
    def test_fields_that_disagree_rejected_naming_the_field(self, field, value, message):
        data = dataset_from_arrays(np.zeros((10, 2)), np.zeros((4, 2)), np.ones(10), np.ones(4))
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(data, **{field: value})

    def test_targets_named_by_their_argument(self):
        """A non-finite target given in raw units is named as passed."""
        with pytest.raises(ValueError, match="^test_target contains non-finite entries$"):
            dataset_from_arrays(np.zeros((3, 1)), np.zeros((2, 1)), np.ones(3),
                                [1.0, np.nan])
