package client_test

import (
	"encoding/json"
	"testing"

	"lowutil"
	"lowutil/client"
)

// TestWireFormatPinned pins the request hash, from which job IDs and batch
// content keys derive, and the bytes the SDK sends, so a change to the
// request model that would move either fails here by value.
func TestWireFormatPinned(t *testing.T) {
	audit := client.Spec{
		Kind: lowutil.KindAudit, Source: "class Main{}", MainClass: "M", MainMethod: "m",
		Options: lowutil.Options{
			Slots: 8, TreeHeight: 2, Traditional: true, TrackControl: true,
			Mode: "cha", ObjCtx: true, Top: 3,
		},
	}
	for _, c := range []struct {
		spec client.Spec
		want string
	}{
		{client.Spec{Kind: lowutil.KindProfile, Source: "src"}, "b99e4565e8ad06409e156af9ee3d6983244b36a2b19fbb03821a7676a912567f"},
		{audit, "33c96c38c3fbe59b66b2b1f8d883a8f89d15dabe515d35ee06815b83bb4b98a1"},
		{client.Spec{Kind: lowutil.KindReport, Source: "é\n", Options: lowutil.Options{Slots: 16, TreeHeight: 4, Top: 10}},
			"60971d160d19637c79739dcb7e2a28e312b6e72b53e9a1734617f3e2d2e15e11"},
	} {
		if got := c.spec.Hash(); got != c.want {
			t.Errorf("%+v.Hash() = %s, want %s", c.spec, got, c.want)
		}
	}
	for _, c := range []struct {
		name string
		v    any
		want string
	}{
		{"audit job", client.Job{Spec: audit, Priority: 2, DeadlineMS: 5},
			`{"kind":"audit","source":"class Main{}","main_class":"M","main_method":"m","slots":8,"tree_height":2,"traditional":true,"track_control":true,"mode":"cha","objctx":true,"top":3,"priority":2,"deadline_ms":5}`},
		{"run job", client.Job{Spec: client.Spec{Kind: lowutil.KindRun, Source: "x"}}, `{"kind":"run","source":"x"}`},
		{"profile request", client.ProfileRequest{Session: "s", Options: lowutil.Options{Slots: 8, TreeHeight: 2, Traditional: true, TrackControl: true, Top: 3}},
			`{"session":"s","slots":8,"tree_height":2,"traditional":true,"track_control":true,"top":3}`},
		{"bare profile request", client.ProfileRequest{Session: "s"}, `{"session":"s"}`},
	} {
		raw, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != c.want {
			t.Errorf("%s: sends %s, want %s", c.name, raw, c.want)
		}
	}
}
