package core

import (
	"testing"

	"repro/internal/stats"
)

func newTrialTracker(e *testEnv) *TrialTracker {
	return &TrialTracker{
		Threshold: 100,
		Benefit:   stats.Cumulative{},
		Updater:   &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: 2, Invite: AlwaysAccept},
	}
}

func TestTrialKeepsBeneficialGuest(t *testing.T) {
	e := newTestEnv(3, 2)
	e.net.Connect(0, 1) // host 0, guest 1
	tr := newTrialTracker(e)
	tr.Begin(0, 0, 1)
	// The guest served something during probation.
	e.ledgers[0].Touch(1).Benefit = 5
	kept, evicted := tr.Expire(e, 150)
	if kept != 1 || evicted != 0 {
		t.Fatalf("kept=%d evicted=%d", kept, evicted)
	}
	if !e.net.Node(0).Out.Contains(1) {
		t.Fatal("beneficial guest evicted")
	}
	if len(tr.trials) != 0 {
		t.Fatal("resolved trial still pending")
	}
}

func TestTrialEvictsUselessGuest(t *testing.T) {
	e := newTestEnv(3, 2)
	e.net.Connect(0, 1)
	tr := newTrialTracker(e)
	tr.Begin(0, 0, 1)
	// No statistics accumulated: the guest never helped.
	kept, evicted := tr.Expire(e, 150)
	if kept != 0 || evicted != 1 {
		t.Fatalf("kept=%d evicted=%d", kept, evicted)
	}
	if e.net.Node(0).Out.Contains(1) {
		t.Fatal("useless guest kept")
	}
	// Eviction semantics: the guest reset its stats about the host.
	if e.ledgers[1].Get(0) != nil {
		t.Fatal("evicted guest kept stats about host")
	}
}

func TestTrialNotDueYet(t *testing.T) {
	e := newTestEnv(3, 2)
	e.net.Connect(0, 1)
	tr := newTrialTracker(e)
	tr.Begin(0, 0, 1)
	kept, evicted := tr.Expire(e, 50) // before the deadline
	if kept != 0 || evicted != 0 {
		t.Fatalf("early expiry resolved a trial: kept=%d evicted=%d", kept, evicted)
	}
	if len(tr.trials) != 1 {
		t.Fatal("pending trial lost")
	}
}

func TestTrialSkipsDissolvedEdges(t *testing.T) {
	e := newTestEnv(3, 2)
	e.net.Connect(0, 1)
	tr := newTrialTracker(e)
	tr.Begin(0, 0, 1)
	e.net.Disconnect(0, 1) // churn removed the edge meanwhile
	kept, evicted := tr.Expire(e, 150)
	if kept != 0 || evicted != 0 {
		t.Fatalf("dissolved trial resolved: kept=%d evicted=%d", kept, evicted)
	}
}

func TestTrialDuplicateBeginIgnored(t *testing.T) {
	e := newTestEnv(3, 2)
	tr := newTrialTracker(e)
	tr.Begin(0, 0, 1)
	tr.Begin(10, 0, 1)
	if len(tr.trials) != 1 {
		t.Fatalf("duplicate trial registered: %d pending", len(tr.trials))
	}
}

func TestTrialDrop(t *testing.T) {
	e := newTestEnv(4, 2)
	tr := newTrialTracker(e)
	tr.Begin(0, 0, 1)
	tr.Begin(0, 2, 3)
	tr.Drop(1) // node 1 went off-line
	if len(tr.trials) != 1 {
		t.Fatalf("Drop left %d trials", len(tr.trials))
	}
}

func TestTrialPanics(t *testing.T) {
	e := newTestEnv(2, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("zero threshold did not panic")
			}
		}()
		(&TrialTracker{}).Begin(0, 0, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("missing updater did not panic")
			}
		}()
		tr := &TrialTracker{Threshold: 1}
		tr.Begin(0, 0, 1)
		tr.Expire(e, 100)
	}()
}
