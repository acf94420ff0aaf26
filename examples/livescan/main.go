// Livescan: exercise the methodology over real TLS connections. A
// loopback server farm plays a hypergiant's on-net, two ISP-hosted
// off-nets, a self-signed impostor, and unrelated sites; the concurrent
// prober fetches their default certificates exactly as the authors'
// certigo scan did, and the §4 rules pick out the genuine off-nets.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"offnetscope/internal/hg"
	"offnetscope/internal/probe"
	"offnetscope/internal/servefarm"
)

func main() {
	log.SetFlags(0)

	netflixHeaders := []hg.Header{{Name: "Server", Value: "nginx"}, {Name: "X-TCP-Info", Value: "rtt:120"}}
	farm, err := servefarm.Start([]servefarm.Spec{
		{Name: "netflix-onnet", Organization: "Netflix, Inc.",
			DNSNames: []string{"*.netflix.com", "*.nflxvideo.net"}, Headers: netflixHeaders},
		{Name: "oca-isp-a", Organization: "Netflix, Inc.",
			DNSNames: []string{"*.nflxvideo.net"},
			Headers:  []hg.Header{{Name: "Server", Value: "nginx"}}}, // anonymous scans see only nginx
		{Name: "oca-isp-b", Organization: "Netflix, Inc.",
			DNSNames: []string{"*.nflxvideo.net", "*.netflix.com"},
			Headers:  []hg.Header{{Name: "Server", Value: "nginx"}}},
		{Name: "impostor", Organization: "Netflix, Inc.",
			DNSNames: []string{"*.netflix.com"}, SelfSigned: true},
		{Name: "background", Organization: "Vandelay Industries",
			DNSNames: []string{"www.vandelay.example"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer farm.Close()

	scanner := probe.New(probe.Config{Concurrency: 8, Timeout: 3 * time.Second, RootCAs: farm.CA.Pool()})
	defer scanner.Close()
	ctx := context.Background()

	results := scanner.FetchCerts(ctx, farm.TLSAddrs())

	// Learn the on-net dNSName set.
	onNames := map[string]struct{}{}
	for i, r := range results {
		if farm.Servers[i].Spec.Name == "netflix-onnet" && r.Valid {
			for _, d := range r.LeafDNSNames() {
				onNames[d] = struct{}{}
			}
		}
	}

	fmt.Println("Netflix off-net inference over live TLS:")
	for i, r := range results {
		srv := farm.Servers[i]
		if srv.Spec.Name == "netflix-onnet" {
			continue
		}
		verdict := "not a candidate"
		if r.Err == nil && hg.MatchOrg(r.LeafOrganization()).Has(hg.Netflix) {
			switch {
			case !r.Valid:
				verdict = "rejected: invalid chain (§4.1)"
			case !allIn(r.LeafDNSNames(), onNames):
				verdict = "rejected: dNSNames not served on-net (§4.3)"
			default:
				// §4.4's Netflix rule: a Netflix certificate plus the
				// default nginx header marks an Open Connect appliance.
				hres := scanner.FetchHeaders(ctx, []string{srv.TLSAddr}, "www.netflix.com", true)
				if hres[0].Err == nil && hasNginx(hres[0].Headers) {
					verdict = "CONFIRMED Open Connect off-net (cert + nginx)"
				} else {
					verdict = "candidate, header check failed"
				}
			}
		}
		fmt.Printf("  %-14s → %s\n", srv.Spec.Name, verdict)
	}
}

func allIn(names []string, set map[string]struct{}) bool {
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

func hasNginx(headers []hg.Header) bool {
	for _, h := range headers {
		if strings.EqualFold(h.Name, "Server") && strings.HasPrefix(strings.ToLower(h.Value), "nginx") {
			return true
		}
	}
	return false
}
