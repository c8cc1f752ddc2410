"""The CLI surface, pinned.

Walks :func:`repro.cli.build_parser` and records, for every subcommand,
each option string with its ``dest``, default, choices, type and action
class.  The flag declarations in ``cli.py`` may be reorganised freely
(shared parent parsers, helpers), but what a user can type — and what
each flag parses to — must not move unless this table is edited on
purpose.  Print the current surface with ``python tests/test_cli_surface.py``.
"""

from __future__ import annotations

import argparse

from repro.cli import build_parser

PINNED = """
[figure5]
figure5 --checkpoint dest=checkpoint default=None type=Path choices=None action=_StoreAction
figure5 --chunk-timeout dest=chunk_timeout default=None type=float choices=None action=_StoreAction
figure5 --distributed dest=distributed default=False type=None choices=None action=_StoreTrueAction
figure5 --guard dest=guard default=None type=None choices=['differential'] action=_StoreAction
figure5 --legacy-kernel dest=legacy_kernel default=False type=None choices=None action=_StoreTrueAction
figure5 --legacy-setup-kernel dest=legacy_setup_kernel default=False type=None choices=None action=_StoreTrueAction
figure5 --no-schedule-cache dest=no_schedule_cache default=False type=None choices=None action=_StoreTrueAction
figure5 --noise dest=noise default='casino' type=None choices=('casino', 'ideal') action=_StoreAction
figure5 --quiet dest=quiet default=False type=None choices=None action=_StoreTrueAction
figure5 --repeats dest=repeats default=30 type=int choices=None action=_StoreAction
figure5 --resume dest=resume default=False type=None choices=None action=_StoreTrueAction
figure5 --search-distance dest=search_distance default=3 type=int choices=(3, 5) action=_StoreAction
figure5 --seed dest=seed default=0 type=int choices=None action=_StoreAction
figure5 --sizes dest=sizes default=[11, 15, 21] type=int choices=None action=_StoreAction
figure5 --telemetry dest=telemetry default=None type=Path choices=None action=_StoreAction
figure5 --workers dest=workers default=None type=workers_argument choices=None action=_StoreAction
[overhead]
overhead --legacy-setup-kernel dest=legacy_setup_kernel default=False type=None choices=None action=_StoreTrueAction
overhead --quiet dest=quiet default=False type=None choices=None action=_StoreTrueAction
overhead --search-distance dest=search_distance default=3 type=int choices=None action=_StoreAction
overhead --seeds dest=seeds default=3 type=int choices=None action=_StoreAction
overhead --setup-periods dest=setup_periods default=None type=int choices=None action=_StoreAction
overhead --size dest=size default=11 type=int choices=(11, 15, 21) action=_StoreAction
overhead --telemetry dest=telemetry default=None type=Path choices=None action=_StoreAction
overhead --workers dest=workers default=None type=workers_argument choices=None action=_StoreAction
[scenario]
[scenario compare]
scenario compare --checkpoint dest=checkpoint default=None type=Path choices=None action=_StoreAction
scenario compare --chunk-timeout dest=chunk_timeout default=None type=float choices=None action=_StoreAction
scenario compare --force-parallel dest=force_parallel default=False type=None choices=None action=_StoreTrueAction
scenario compare --guard dest=guard default=None type=None choices=['differential'] action=_StoreAction
scenario compare --legacy-kernel dest=legacy_kernel default=False type=None choices=None action=_StoreTrueAction
scenario compare --legacy-setup-kernel dest=legacy_setup_kernel default=False type=None choices=None action=_StoreTrueAction
scenario compare --no-schedule-cache dest=no_schedule_cache default=False type=None choices=None action=_StoreTrueAction
scenario compare --quiet dest=quiet default=False type=None choices=None action=_StoreTrueAction
scenario compare --resume dest=resume default=False type=None choices=None action=_StoreTrueAction
scenario compare --schedule-store dest=schedule_store default=None type=Path choices=None action=_StoreAction
scenario compare --seed dest=seed default=None type=int choices=None action=_StoreAction
scenario compare --seeds dest=seeds default=None type=int choices=None action=_StoreAction
scenario compare --telemetry dest=telemetry default=None type=Path choices=None action=_StoreAction
scenario compare --workers dest=workers default=None type=workers_argument choices=None action=_StoreAction
scenario compare <names> dest=names default=None type=None choices=None action=_StoreAction
[scenario export]
scenario export --out dest=out default=None type=Path choices=None action=_StoreAction
scenario export <name> dest=name default=None type=None choices=None action=_StoreAction
[scenario list]
[scenario run]
scenario run --checkpoint dest=checkpoint default=None type=Path choices=None action=_StoreAction
scenario run --chunk-timeout dest=chunk_timeout default=None type=float choices=None action=_StoreAction
scenario run --force-parallel dest=force_parallel default=False type=None choices=None action=_StoreTrueAction
scenario run --guard dest=guard default=None type=None choices=['differential'] action=_StoreAction
scenario run --jsonl dest=jsonl default=False type=None choices=None action=_StoreTrueAction
scenario run --legacy-kernel dest=legacy_kernel default=False type=None choices=None action=_StoreTrueAction
scenario run --legacy-setup-kernel dest=legacy_setup_kernel default=False type=None choices=None action=_StoreTrueAction
scenario run --no-schedule-cache dest=no_schedule_cache default=False type=None choices=None action=_StoreTrueAction
scenario run --out dest=out default=None type=Path choices=None action=_StoreAction
scenario run --quiet dest=quiet default=False type=None choices=None action=_StoreTrueAction
scenario run --resume dest=resume default=False type=None choices=None action=_StoreTrueAction
scenario run --schedule-store dest=schedule_store default=None type=Path choices=None action=_StoreAction
scenario run --seed dest=seed default=None type=int choices=None action=_StoreAction
scenario run --seeds dest=seeds default=None type=int choices=None action=_StoreAction
scenario run --telemetry dest=telemetry default=None type=Path choices=None action=_StoreAction
scenario run --workers dest=workers default=None type=workers_argument choices=None action=_StoreAction
scenario run <name> dest=name default=None type=None choices=None action=_StoreAction
[service]
[service fsck]
service fsck --data-dir dest=data_dir default=None type=Path choices=None action=_StoreAction
service fsck --repair dest=repair default=False type=None choices=None action=_StoreTrueAction
[service gc]
service gc --data-dir dest=data_dir default=None type=Path choices=None action=_StoreAction
service gc --keep dest=keep default=None type=int choices=None action=_StoreAction
service gc --quiet dest=quiet default=False type=None choices=None action=_StoreTrueAction
[service result]
service result --out dest=out default=None type=Path choices=None action=_StoreAction
service result --quiet dest=quiet default=False type=None choices=None action=_StoreTrueAction
service result --timeout dest=timeout default=30.0 type=float choices=None action=_StoreAction
service result --url dest=url default='http://127.0.0.1:8642' type=None choices=None action=_StoreAction
service result <job> dest=job default=None type=None choices=None action=_StoreAction
[service start]
service start --data-dir dest=data_dir default=None type=Path choices=None action=_StoreAction
service start --host dest=host default='127.0.0.1' type=None choices=None action=_StoreAction
service start --max-attempts dest=max_attempts default=None type=int choices=None action=_StoreAction
service start --max-jobs dest=max_jobs default=1 type=int choices=None action=_StoreAction
service start --port dest=port default=8642 type=int choices=None action=_StoreAction
service start --quiet dest=quiet default=False type=None choices=None action=_StoreTrueAction
service start --remote dest=remote default=False type=None choices=None action=_StoreTrueAction
service start --schedule-store dest=schedule_store default=None type=Path choices=None action=_StoreAction
service start --shard-timeout dest=shard_timeout default=None type=float choices=None action=_StoreAction
service start --shard-workers dest=shard_workers default=2 type=int choices=None action=_StoreAction
service start --shards-per-job dest=shards_per_job default=None type=int choices=None action=_StoreAction
service start --token dest=token default=None type=None choices=None action=_StoreAction
[service status]
service status --timeout dest=timeout default=30.0 type=float choices=None action=_StoreAction
service status --url dest=url default='http://127.0.0.1:8642' type=None choices=None action=_StoreAction
service status <job> dest=job default=None type=None choices=None action=_StoreAction
[service submit]
service submit --legacy-kernel dest=legacy_kernel default=False type=None choices=None action=_StoreTrueAction
service submit --legacy-setup-kernel dest=legacy_setup_kernel default=False type=None choices=None action=_StoreTrueAction
service submit --quiet dest=quiet default=False type=None choices=None action=_StoreTrueAction
service submit --seed dest=seed default=None type=int choices=None action=_StoreAction
service submit --seeds dest=seeds default=None type=int choices=None action=_StoreAction
service submit --timeout dest=timeout default=600.0 type=float choices=None action=_StoreAction
service submit --token dest=token default=None type=None choices=None action=_StoreAction
service submit --url dest=url default='http://127.0.0.1:8642' type=None choices=None action=_StoreAction
service submit --wait dest=wait default=False type=None choices=None action=_StoreTrueAction
service submit <name> dest=name default=None type=None choices=None action=_StoreAction
[service workers]
service workers --timeout dest=timeout default=30.0 type=float choices=None action=_StoreAction
service workers --url dest=url default='http://127.0.0.1:8642' type=None choices=None action=_StoreAction
[show]
show --search-distance dest=search_distance default=3 type=int choices=None action=_StoreAction
show --seed dest=seed default=0 type=int choices=None action=_StoreAction
show --size dest=size default=11 type=int choices=(11, 15, 21) action=_StoreAction
[table1]
[verify]
verify --search-distance dest=search_distance default=3 type=int choices=None action=_StoreAction
verify --seed dest=seed default=0 type=int choices=None action=_StoreAction
verify --size dest=size default=11 type=int choices=(11, 15, 21) action=_StoreAction
[worker]
[worker start]
worker start --connect dest=connect default=None type=None choices=None action=_StoreAction
worker start --id dest=id default=None type=None choices=None action=_StoreAction
worker start --idle-exit dest=idle_exit default=None type=float choices=None action=_StoreAction
worker start --max-attempts dest=max_attempts default=None type=int choices=None action=_StoreAction
worker start --poll dest=poll default=0.2 type=float choices=None action=_StoreAction
worker start --quiet dest=quiet default=False type=None choices=None action=_StoreTrueAction
worker start --timeout dest=timeout default=10.0 type=float choices=None action=_StoreAction
worker start --token dest=token default=None type=None choices=None action=_StoreAction
worker start --upload-batch dest=upload_batch default=1 type=int choices=None action=_StoreAction
"""


def _row(path: str, action: argparse.Action) -> str:
    option = (
        "/".join(action.option_strings)
        if action.option_strings
        else f"<{action.dest}>"
    )
    kind = getattr(action.type, "__name__", action.type)
    return (
        f"{path} {option} dest={action.dest} default={action.default!r} "
        f"type={kind} choices={action.choices!r} "
        f"action={type(action).__name__}"
    )


def cli_surface() -> list:
    """One header line per subcommand and one row per option, sorted."""
    rows = []

    def walk(parser: argparse.ArgumentParser, path: str) -> None:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    child_path = f"{path} {name}".strip()
                    rows.append(f"[{child_path}]")
                    walk(child, child_path)
            elif not isinstance(action, argparse._HelpAction):
                rows.append(_row(path, action))

    walk(build_parser(), "")
    return sorted(rows)


def test_cli_surface_matches_the_pinned_table():
    pinned = sorted(line for line in PINNED.splitlines() if line)
    current = cli_surface()
    missing = sorted(set(pinned) - set(current))
    extra = sorted(set(current) - set(pinned))
    assert not missing and not extra, (
        "CLI surface changed:\n"
        + "".join(f"  - {line}\n" for line in missing)
        + "".join(f"  + {line}\n" for line in extra)
    )
    assert current == pinned


if __name__ == "__main__":  # pragma: no cover - maintenance helper
    print("\n".join(cli_surface()))
