package main

import (
	"errors"
	"sync"
	"testing"

	"github.com/mobilegrid/adf/internal/hla"
)

// quietAmbassador discards callbacks.
type quietAmbassador struct{}

func (quietAmbassador) ReceiveInteraction(string, hla.Values, float64) {}
func (quietAmbassador) TimeAdvanceGrant(float64)                       {}

func TestSetupAndServe(t *testing.T) {
	srv, err := setup([]string{"-addr", "127.0.0.1:0", "-federations", "alpha, beta"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	go func() { _ = srv.Serve() }()

	// Both federations accept joins; unknown ones do not.
	for _, fed := range []string{"alpha", "beta"} {
		c, err := hla.Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Join(fed, "probe", 1, quietAmbassador{}); err != nil {
			t.Errorf("join %s: %v", fed, err)
		}
		if err := c.Resign(); err != nil {
			t.Errorf("resign %s: %v", fed, err)
		}
		_ = c.Close()
	}
	c, err := hla.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Join("gamma", "probe", 1, quietAmbassador{}); !errors.Is(err, hla.ErrNoFederation) {
		t.Errorf("join unknown federation: %v", err)
	}
}

func TestSetupErrors(t *testing.T) {
	cases := [][]string{
		{"-addr", "999.999.999.999:0"},
		{"-federations", " , "},
		{"-federations", "a,a"}, // duplicate federation
		{"-nope"},
	}
	for _, args := range cases {
		srv, err := setup(args)
		if err == nil {
			_ = srv.Close()
			t.Errorf("args %v: want error", args)
		}
	}
}

func TestServedFederationSupportsTraffic(t *testing.T) {
	srv, err := setup([]string{"-addr", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	go func() { _ = srv.Serve() }()

	send, err := hla.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = send.Close() }()
	recv, err := hla.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = recv.Close() }()

	received := &countingAmbassador{}
	if err := send.Join("mobilegrid", "send", 1, quietAmbassador{}); err != nil {
		t.Fatal(err)
	}
	if err := recv.Join("mobilegrid", "recv", 1, received); err != nil {
		t.Fatal(err)
	}
	if err := send.PublishInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	if err := recv.SubscribeInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	if err := send.SendInteraction("LU", nil, 2); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = send.TimeAdvanceRequest(3) }()
	go func() { defer wg.Done(); _ = recv.TimeAdvanceRequest(3) }()
	wg.Wait()
	if received.interactions != 1 {
		t.Errorf("interactions = %d, want 1", received.interactions)
	}
}

type countingAmbassador struct {
	quietAmbassador
	interactions int
}

func (a *countingAmbassador) ReceiveInteraction(string, hla.Values, float64) {
	a.interactions++
}

// TestGracefulShutdownRoster exercises the machinery behind the SIGTERM
// path: with federates still joined, the RTI snapshot reports them (the
// roster run logs before tearing down) and Shutdown stops the listener
// before dropping the connections.
func TestGracefulShutdownRoster(t *testing.T) {
	srv, err := setup([]string{"-addr", "127.0.0.1:0", "-federations", "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()

	var clients []*hla.Client
	for _, name := range []string{"first", "second"} {
		c, err := hla.Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		if err := c.Join("alpha", name, 1, quietAmbassador{}); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()

	snap := srv.RTI().Snapshot()
	if len(snap) != 1 || snap[0].Name != "alpha" {
		t.Fatalf("snapshot = %+v, want one federation alpha", snap)
	}
	got := snap[0].Federates
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("federate roster = %v, want [first second]", got)
	}

	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The listener is gone: new connections must fail.
	if c, err := hla.Dial(srv.Addr().String()); err == nil {
		_ = c.Close()
		t.Error("dial succeeded after Shutdown")
	}
	// The handlers resigned the dropped federates on the way out.
	for _, fi := range srv.RTI().Snapshot() {
		if len(fi.Federates) != 0 {
			t.Errorf("federates still joined after Shutdown: %v", fi.Federates)
		}
	}
}
