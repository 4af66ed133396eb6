import pytest

from upgradesim.errors import ChangeSetCompletedError, InvalidRequestError
from upgradesim.requests import (
    Change,
    ChangeSet,
    Status,
    UpgradeRequest,
    UpgradeRequestModel,
    advance_status,
    within_deadline,
)
from upgradesim.scenario import build_catalog, build_cluster

from conftest import toy_scenario


def _env(host_count=3):
    scenario = toy_scenario(host_count=host_count)
    return build_cluster(scenario), build_catalog(scenario)


def _change(change_id="ch-1", targets=("hv1",), **kw):
    return Change(
        change_id=change_id,
        action="upgrade",
        product="qemu",
        target_version="2",
        targets=tuple(targets),
        **kw,
    )


def _request(sets):
    return UpgradeRequest(request_id="req-x", change_sets=sets)


def test_submit_creates_one_undo_unit_per_set():
    cluster, catalog = _env()
    request = _request(
        [
            ChangeSet("cs-1", [_change("c1", ("hv1",))], 600_000, 2),
            ChangeSet("cs-2", [_change("c2", ("hv2",))], 600_000, 2),
        ]
    )
    model = UpgradeRequestModel()
    model.submit(request, cluster, catalog)
    assert sorted(model.sets) == ["cs-1", "cs-2"]
    # source versions captured at submission for the undo scope
    assert model.sets["cs-1"].changes[0].source_state == {"hv1": ("qemu", "1")}


def test_empty_request_rejected():
    cluster, catalog = _env()
    with pytest.raises(InvalidRequestError):
        UpgradeRequestModel().submit(_request([]), cluster, catalog)


def test_overlapping_sets_in_one_request_rejected():
    cluster, catalog = _env()
    request = _request(
        [
            ChangeSet("cs-1", [_change("c1", ("hv1",))], 600_000, 2),
            ChangeSet("cs-2", [_change("c2", ("hv1",))], 600_000, 2),
        ]
    )
    with pytest.raises(InvalidRequestError, match="hv1"):
        UpgradeRequestModel().submit(request, cluster, catalog)


def test_selector_resolves_at_submission():
    cluster, catalog = _env(4)
    change = Change(
        change_id="c1", action="upgrade", product="qemu", target_version="2",
        selector={"kind": "hypervisor"},
    )
    model = UpgradeRequestModel()
    model.submit(_request([ChangeSet("cs-1", [change], 600_000, 2)]), cluster, catalog)
    assert change.targets == ("hv1", "hv2", "hv3", "hv4")


def test_pending_target_accepted_across_requests():
    # the ordering is handled by appended execution levels, not refusal
    cluster, catalog = _env()
    model = UpgradeRequestModel()
    model.submit(_request([ChangeSet("cs-1", [_change("c1", ("hv1",))], 600_000, 2)]), cluster, catalog)
    second = UpgradeRequest(
        request_id="req-y",
        change_sets=[ChangeSet("cs-2", [_change("c2", ("hv1",))], 600_000, 2)],
    )
    model.submit(second, cluster, catalog)
    assert model.sets["cs-2"].status == Status.NEW


def test_undo_threshold_bounds_validated():
    cluster, catalog = _env()
    bad = ChangeSet("cs-1", [_change("c1", ("hv1",), undo_threshold=2)], 600_000, 2)
    with pytest.raises(InvalidRequestError, match="undo-threshold"):
        UpgradeRequestModel().submit(_request([bad]), cluster, catalog)


class TestAdminUndo:
    def _model(self):
        cluster, catalog = _env()
        model = UpgradeRequestModel()
        model.submit(
            _request([ChangeSet("cs-1", [_change("c1", ("hv1",))], 600_000, 2)]),
            cluster,
            catalog,
        )
        return model

    def test_flags_scheduled_set(self):
        model = self._model()
        model.sets["cs-1"].status = Status.SCHEDULED
        model.record_admin_undo("cs-1")
        assert model.sets["cs-1"].undo_requested
        assert model.sets["cs-1"].undo_reason == "admin"

    def test_completed_set_refused(self):
        model = self._model()
        model.sets["cs-1"].status = Status.COMPLETED
        with pytest.raises(ChangeSetCompletedError):
            model.record_admin_undo("cs-1")

    def test_idempotent(self):
        model = self._model()
        model.record_admin_undo("cs-1")
        model.record_admin_undo("cs-1")
        assert model.sets["cs-1"].undo_reason == "admin"


class TestDeadline:
    def _set(self):
        return ChangeSet("cs-1", [_change()], max_completion_period_ms=600_000, max_retry=1)

    def test_before_deadline(self):
        cs = self._set()
        cs.submitted_at = 0
        assert within_deadline(cs, 599_000)

    def test_at_deadline_inclusive(self):
        cs = self._set()
        cs.submitted_at = 0
        assert within_deadline(cs, 600_000)

    def test_past_deadline(self):
        cs = self._set()
        cs.submitted_at = 0
        assert not within_deadline(cs, 601_000)


class TestStatusTransitions:
    def test_forward_only(self):
        assert advance_status(Status.NEW, Status.SCHEDULED) == Status.SCHEDULED
        assert advance_status(Status.SCHEDULED, Status.COMPLETED) == Status.COMPLETED

    def test_completed_is_terminal(self):
        with pytest.raises(InvalidRequestError):
            advance_status(Status.COMPLETED, Status.FAILED)

    def test_no_regression(self):
        with pytest.raises(InvalidRequestError):
            advance_status(Status.SCHEDULED, Status.NEW)
