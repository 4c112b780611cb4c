package retrieval

import "testing"

var embedSink Vector

// BenchmarkEmbed times one query embedding, the cost of an embedding-cache
// miss on the chunk fallback, and one chunk's as ingest embeds them. B/op is
// the vector itself plus the content-token slice.
func BenchmarkEmbed(b *testing.B) {
	for _, c := range []struct{ name, text string }{
		{"query", "Anything interesting regarding Flight CA981 lately"},
		{"chunk", "The status of Flight CA981 is Delayed. The departure gate of Flight CA981 is B12. " +
			"The operator of Flight CA981 is Air China. The origin of Flight CA981 is Beijing. " +
			"According to AirChina Official API, the status of Flight CA981 is Delayed."},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				embedSink = Embed(c.text, DefaultDim)
			}
		})
	}
}
