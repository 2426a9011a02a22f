package main

import "testing"

func TestCleanFailsClosedLoopOnFailedRequest(t *testing.T) {
	var ok, failed, wrong loadResult
	ok.attempted, failed.attempted, wrong.attempted = 10, 10, 10
	failed.failed = 1
	wrong.mismatches = 1
	closed := &bench{bulk: &bulkPlan{}}
	open := &bench{fleet: &fleetPlan{}}
	if !closed.clean(ok) || !open.clean(ok) {
		t.Error("a run without failures or mismatches is not clean")
	}
	if closed.clean(failed) {
		t.Error("a closed-loop run with a failed request is clean")
	}
	if !open.clean(failed) {
		t.Error("an open-loop run with a refused request is not clean")
	}
	if closed.clean(wrong) || open.clean(wrong) {
		t.Error("a run with a mismatch is clean")
	}
}
