package gamma

import "testing"

func TestMemPoolAccounting(t *testing.T) {
	p := NewMemPool(100)
	if p.Total() != 100 || p.Free() != 100 || p.InUse() != 0 {
		t.Fatalf("fresh pool: total %d free %d inUse %d", p.Total(), p.Free(), p.InUse())
	}
	if err := p.Take(60); err != nil {
		t.Fatalf("take 60: %v", err)
	}
	if err := p.Take(50); err == nil {
		t.Fatal("take 50 with 40 free should fail")
	}
	if err := p.Take(40); err != nil {
		t.Fatalf("take 40: %v", err)
	}
	if p.Free() != 0 || p.Peak() != 100 || p.Grants() != 2 {
		t.Fatalf("after takes: free %d peak %d grants %d", p.Free(), p.Peak(), p.Grants())
	}
	if err := p.Release(60); err != nil {
		t.Fatalf("release 60: %v", err)
	}
	if err := p.Release(41); err == nil {
		t.Fatal("over-release should fail")
	}
	if err := p.Release(40); err != nil {
		t.Fatalf("release 40: %v", err)
	}
	if p.Free() != 100 || p.Peak() != 100 {
		t.Fatalf("drained pool: free %d peak %d", p.Free(), p.Peak())
	}
	if err := p.Take(0); err == nil {
		t.Fatal("zero grant should fail")
	}
}

func TestMemPoolRevokeRegrant(t *testing.T) {
	p := NewMemPool(100)
	if err := p.Take(80); err != nil {
		t.Fatalf("take 80: %v", err)
	}
	if err := p.Revoke(0); err == nil {
		t.Fatal("zero revoke should fail")
	}
	if err := p.Revoke(81); err == nil {
		t.Fatal("revoking more than in use should fail")
	}
	if err := p.Revoke(30); err != nil {
		t.Fatalf("revoke 30: %v", err)
	}
	// Revoked bytes return to the free pool immediately; the admission
	// ledger (Grants) does not move.
	if p.Free() != 50 || p.InUse() != 50 || p.Grants() != 1 {
		t.Fatalf("after revoke: free %d inUse %d grants %d", p.Free(), p.InUse(), p.Grants())
	}
	if p.Revoked() != 30 || p.Revokes() != 1 || p.Regranted() != 0 {
		t.Fatalf("ledger: revoked %d in %d calls, regranted %d", p.Revoked(), p.Revokes(), p.Regranted())
	}
	if err := p.Regrant(51); err == nil {
		t.Fatal("re-grant beyond free pool should fail")
	}
	if err := p.Regrant(30); err != nil {
		t.Fatalf("regrant 30: %v", err)
	}
	if p.InUse() != 80 || p.Grants() != 1 || p.Regranted() != 30 {
		t.Fatalf("after regrant: inUse %d grants %d regranted %d", p.InUse(), p.Grants(), p.Regranted())
	}
	// The cumulative ledgers survive the grant's release.
	if err := p.Release(80); err != nil {
		t.Fatalf("release: %v", err)
	}
	if p.Revoked() != 30 || p.Regranted() != 30 || p.Revokes() != 1 {
		t.Fatalf("ledger after release: %d/%d/%d", p.Revoked(), p.Regranted(), p.Revokes())
	}
}
