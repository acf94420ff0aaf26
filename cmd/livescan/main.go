// Command livescan demonstrates the methodology over real sockets: it
// starts a loopback server farm emulating hypergiant on-nets, off-nets,
// third-party edges, impostors and background sites, scans it with the
// concurrent TLS/HTTP prober (the certigo/ZGrab2 roles), and runs the §4
// steps on the live results.
//
// Usage:
//
//	livescan [-concurrency 16] [-rate 200]
//
// SIGINT/SIGTERM cancels the scan context: in-flight probes are
// abandoned mid-handshake, the farm shuts down, and the process exits
// cleanly instead of leaving sockets and workers behind.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"offnetscope/internal/hg"
	"offnetscope/internal/probe"
	"offnetscope/internal/servefarm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("livescan: ")

	concurrency := flag.Int("concurrency", 16, "probe worker pool size")
	rate := flag.Int("rate", 200, "probes per second (0 = unlimited)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, *concurrency, *rate); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, concurrency, rate int) error {
	specs := demoSpecs()
	farm, err := servefarm.Start(specs)
	if err != nil {
		return err
	}
	defer farm.Close()
	log.Printf("farm up: %d servers on loopback", len(farm.Servers))

	scanner := probe.New(probe.Config{
		Concurrency:   concurrency,
		RatePerSecond: rate,
		Timeout:       3 * time.Second,
		RootCAs:       farm.CA.Pool(),
	})
	defer scanner.Close()

	// Certigo role: sweep default certificates.
	t0 := time.Now()
	results := scanner.FetchCerts(ctx, farm.TLSAddrs())
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("scan interrupted: %w", err)
	}
	log.Printf("swept %d servers in %v", len(results), time.Since(t0).Round(time.Millisecond))

	for _, h := range []hg.ID{hg.Google, hg.Akamai} {
		inferOne(ctx, scanner, farm, results, hg.Get(h))
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("scan interrupted: %w", err)
		}
	}
	return nil
}

// inferOne applies §4 to one hypergiant using live scan data.
func inferOne(ctx context.Context, scanner *probe.Scanner, farm *servefarm.Farm, results []probe.CertResult, h *hg.Hypergiant) {
	fmt.Printf("\n--- %s ---\n", h.Name)

	// §4.2: learn the dNSName fingerprint from the (known) on-net boxes.
	onNames := map[string]struct{}{}
	for i, r := range results {
		if !strings.HasPrefix(farm.Servers[i].Spec.Name, strings.ToLower(h.Name)+"-onnet") {
			continue
		}
		if !r.Valid || !hg.MatchOrg(r.LeafOrganization()).Has(h.ID) {
			continue
		}
		for _, d := range r.LeafDNSNames() {
			onNames[d] = struct{}{}
		}
	}
	fmt.Printf("on-net fingerprint: %d dNSNames\n", len(onNames))

	// §4.3 + §4.5: candidates elsewhere, confirmed by headers.
	for i, r := range results {
		srv := farm.Servers[i]
		if strings.HasPrefix(srv.Spec.Name, strings.ToLower(h.Name)+"-onnet") {
			continue
		}
		if r.Err != nil || !hg.MatchOrg(r.LeafOrganization()).Has(h.ID) {
			continue
		}
		status := "candidate"
		switch {
		case !r.Valid:
			status = "REJECTED (invalid chain, §4.1)"
		case !subset(r.LeafDNSNames(), onNames):
			status = "REJECTED (dNSNames not on-net, §4.3)"
		default:
			hres := scanner.FetchHeaders(ctx, []string{srv.TLSAddr}, hg.ConcreteDomain(h.Domains[0]), true)
			if hres[0].Err == nil && h.MatchesHeaders(hres[0].Headers) {
				status = "CONFIRMED off-net (§4.5)"
			} else {
				status = "candidate, header confirmation failed (§4.5)"
			}
		}
		fmt.Printf("%-18s org=%-28q %s\n", srv.Spec.Name, r.LeafOrganization(), status)
	}
}

func subset(names []string, set map[string]struct{}) bool {
	if len(names) == 0 {
		return false
	}
	for _, d := range names {
		if _, ok := set[d]; !ok {
			return false
		}
	}
	return true
}

// demoSpecs builds the miniature Internet the demo scans.
func demoSpecs() []servefarm.Spec {
	gws := []hg.Header{{Name: "Server", Value: "gws"}}
	ghost := []hg.Header{{Name: "Server", Value: "AkamaiGHost"}}
	nginx := []hg.Header{{Name: "Server", Value: "nginx"}}
	return []servefarm.Spec{
		{Name: "google-onnet-1", Organization: "Google LLC",
			DNSNames: []string{"*.google.com", "*.googlevideo.com", "*.gstatic.com"}, Headers: gws},
		{Name: "google-onnet-2", Organization: "Google LLC",
			DNSNames: []string{"*.youtube.com", "*.googlevideo.com"}, Headers: gws},
		{Name: "google-offnet-isp1", Organization: "Google LLC",
			DNSNames: []string{"*.googlevideo.com", "*.gstatic.com"}, Headers: gws},
		{Name: "google-offnet-isp2", Organization: "Google LLC",
			DNSNames: []string{"*.googlevideo.com", "*.youtube.com"}, Headers: gws},
		{Name: "google-impostor", Organization: "Google LLC",
			DNSNames: []string{"*.google.com"}, SelfSigned: true, Headers: nginx},
		{Name: "google-sharedcert", Organization: "Google LLC",
			DNSNames: []string{"*.google.com", "*.partner.example"}, Headers: nginx},
		{Name: "akamai-onnet-1", Organization: "Akamai Technologies, Inc.",
			DNSNames: []string{"a248.e.akamai.net", "*.akamaized.net"}, Headers: ghost},
		{Name: "akamai-offnet-isp3", Organization: "Akamai Technologies, Inc.",
			DNSNames: []string{"a248.e.akamai.net"}, Headers: ghost,
			ExtraDomains: map[string]servefarm.ExtraCert{
				"www.apple.com": {Organization: "Apple Inc.", DNSNames: []string{"*.apple.com"}},
			}},
		{Name: "background-1", Organization: "Acme Web Services",
			DNSNames: []string{"www.acme.example"}, Headers: nginx},
		{Name: "background-2", Organization: "Initech Hosting",
			DNSNames: []string{"www.initech.example"}, Headers: nginx},
	}
}
